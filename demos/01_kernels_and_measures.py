#!/usr/bin/env python3
"""Memory-kernel presets, their decay classes and Laplace measures.

Every admissible kernel is even, positive and eventually decreasing.  The
completely monotone presets (and the phi(t^2) family) carry a positive
measure mu with K(t) = Int exp(-t x) mu(dx); this script tabulates the decay
classification and shows the measure reproducing each kernel.
"""

import numpy as np

from gle_spectra import kernel_eval, parse_kernel_spec

PRESETS = [
    "powerlaw:0.5",
    "rouse:[1,2,4]",
    "gaussian:1",
    "cauchy:1,1",
    "cauchy:0.25,1",
    "one-plus-t-inverse",
]

print("kernel              tail class      alpha   c = lim t^a K(t)")
for spec in PRESETS:
    k = parse_kernel_spec(spec)
    tc = k.tail_class()
    alpha = "-" if tc.alpha is None else f"{tc.alpha:.2f}"
    const = "-" if tc.constant is None else f"{tc.constant:.3f}"
    print(f"{spec:20s}{tc.kind:16s}{alpha:8s}{const}")

print("\nLaplace-measure reproduction (relative error of Int e^{-tx} mu(dx) vs K):")
ts = np.geomspace(0.01, 20.0, 7)
for spec in PRESETS:
    k = parse_kernel_spec(spec)
    m = k.bernstein()
    arg = ts * ts if m.measure_of == "phi" else ts
    rel = np.abs(m.laplace(arg) / kernel_eval(k, ts) - 1.0)
    kind = "phi(t^2) measure" if m.measure_of == "phi" else "kernel measure  "
    print(f"{spec:20s}{kind}  max rel err {rel.max():.2e}")

print("\nmeasure moment checks (all must be finite):")
m = parse_kernel_spec("powerlaw:0.5").bernstein()
for name, val in m.finiteness().items():
    print(f"  {name:22s} = {val:.6f}")
