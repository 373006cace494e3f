"""Property tests with bounded example counts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gle_spectra import (
    POSITION_INTEGRAL,
    VELOCITY_INTEGRAL,
    QuadConfig,
    TailClass,
    ToleranceNotMet,
    TransformDomainError,
    compute_msd_curve,
    integrate_adaptive,
    kcos_ksin_grid,
    msd_v,
    msd_x,
    parse_kernel_spec,
    transform,
)
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


# one kernel of every family, integrable or not
KERNEL_FAMILIES = (
    "powerlaw:0.5",
    "rouse:[1,2]",
    "gaussian:1",
    "cauchy:1,1",
    "cauchy:0.4,1",
    "one-plus-t-inverse",
)


@st.composite
def _kernel_and_route(draw):
    kernel = parse_kernel_spec(draw(st.sampled_from(KERNEL_FAMILIES)))
    return kernel, draw(st.sampled_from(kernel.routes))


@settings(max_examples=20, deadline=None)
@given(
    kernel_route=_kernel_and_route(),
    omegas=st.lists(st.sampled_from((0.0, 0.3, -1.0, 2.5, -7.0)), min_size=1, max_size=4),
)
def test_grid_equals_transform_row_by_row(kernel_route, omegas):
    kernel, route = kernel_route
    grid = np.array(omegas)
    integrable = kernel.tail_class().kind == TailClass.INTEGRABLE
    if 0.0 in omegas and not integrable:
        with pytest.raises(TransformDomainError):
            kcos_ksin_grid(kernel, grid, route=route)
        with pytest.raises(TransformDomainError):
            transform(kernel, 0.0, route=route)
        return
    kcos, ksin = kcos_ksin_grid(kernel, grid, route=route)
    rows = [transform(kernel, w, route=route) for w in omegas]
    # the measure routes' matrix products may sum a row in another order
    # than a one-row product does
    assert kcos.tolist() == pytest.approx([p.kcos for p in rows], rel=1e-14, abs=0.0)
    assert ksin.tolist() == pytest.approx([p.ksin for p in rows], rel=1e-14, abs=0.0)
    assert [p.route for p in rows] == ["closed_form" if w == 0.0 else route for w in omegas]


@settings(max_examples=25, deadline=None)
@given(p=st.floats(0.05, 0.95), budget=st.integers(17, 80))
def test_convergent_power_is_never_divergent(p, budget):
    # Int_0^1 x**-p converges: the engine meets its tolerance or reports
    # ToleranceNotMet when the budget runs out, never DivergentTail
    cfg = QuadConfig(max_subdivisions=budget)
    try:
        val, _ = integrate_adaptive(lambda x: x ** -p, 0.0, 1.0, cfg)
    except ToleranceNotMet:
        return
    assert val == pytest.approx(1.0 / (1.0 - p), rel=1e-7)
