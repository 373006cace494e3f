"""Property tests with bounded example counts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gle_spectra import POSITION_INTEGRAL, VELOCITY_INTEGRAL, compute_msd_curve, msd_v, msd_x
from conftest import trapped_ctx

# the kernel families of the benchmark's MSD workload
BENCHMARK_KERNELS = ("powerlaw:0.45", "rouse:[0.7,3]", "one-plus-t-inverse")
POINTWISE = {POSITION_INTEGRAL: msd_x, VELOCITY_INTEGRAL: msd_v}


@settings(max_examples=12, deadline=None)
@given(
    spec=st.sampled_from(BENCHMARK_KERNELS),
    quantity=st.sampled_from(tuple(POINTWISE)),
    log_times=st.lists(st.floats(-2.0, 5.0), min_size=1, max_size=5, unique=True),
)
def test_batched_curve_equals_pointwise_values(spec, quantity, log_times):
    ctx = trapped_ctx(spec)
    times = np.unique(10.0 ** np.array(log_times))
    curve = compute_msd_curve(ctx, times, quantity)
    pointwise = [POINTWISE[quantity](ctx, t) for t in times]
    assert curve.values == pytest.approx(pointwise, rel=1e-14, abs=0.0)
