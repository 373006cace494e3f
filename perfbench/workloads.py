"""Seeded request generation for the gle-spectra benchmark workloads.

A workload round is a list of ``gle-spectra`` CLI requests (argv lists) plus
the JSON config files they name.  Everything is drawn from the workload, the
seed and the round index, so the same (workload, seed, round) always gives
the same argv lists and configs; the program sees only those.  Request
sizes are fixed per workload; kernel and physical parameters are drawn inside
ranges where every request is expected to pass its check
(see checks.py), except the requests marked ``known_defect``.

Config and output files are named relative to the round's working
directory, so argv lists do not depend on where the benchmark runs.
"""

from dataclasses import dataclass, field
import json
import math
import random

import numpy as np


TRANSFORM_GRID = "log:0.001:1000:400"
SPECTRUM_GRID = "log:0.001:1000:2000"
MSD_X_GRID = "log:100:10000:25"
MSD_V_GRID = "log:1:1000000:25"
GOLDEN_GRID = "log:0.01:100:9"

# The shipped demo configurations that the golden files in tests/golden/ were
# produced from; requests on them are compared against those files.
TRAPPED_POWERLAW = {"m": 1, "lambda": 1, "beta": 1, "gamma": 2, "kbt": 1, "kernel": "powerlaw:0.5"}
TRAPPED_ROUSE = {"m": 1, "lambda": 1, "beta": 1, "gamma": 2, "kbt": 1, "kernel": "rouse:1"}

# Undamped stiff traps on which equipartition returns a wrong ratio with a
# tight error bar (ROADMAP item 5).  They stay in the workload so the defect
# shows; their check failures are reported by name but are not counted as
# benchmark failures until the library fixes them.
STIFF_TRAPS = (
    ("rouse", "rouse:[1,2,4]", 1e6),
    ("gaussian", "gaussian:1", 1e4),
    ("powerlaw", "powerlaw:0.5", 1e8),
)
STIFF_TRAP_DEFECT = "undamped stiff trap misses the resonance (ROADMAP item 5)"

# The numeric oracle misses the 1e-6 route agreement on phi(t^2) kernels,
# where the phi route matches mpmath to ~1e-15 (and, for gaussian, the closed
# forms that checks.py also compares it with): by 2.6e-6 relative on Ksin at
# cauchy:1.16,1.32 and omega=20.7, by 9e-4 on Kcos at cauchy:1.44,1.79 and
# omega=8.7, a value 1e-6 of its peak that the oracle sums from O(1) cells,
# and by up to 1.5e-8 of the peak where the gaussian Kcos is below 1e-25.
# Only the gaussian and cauchy oracle comparisons report misses within
# PHI_ORACLE_SLACK (relative, share of the peak) as this defect; larger ones,
# and every other route comparison, fail.
PHI_ORACLE_SLACK = (1e-3, 1e-7)
PHI_ORACLE_DEFECT = ("numeric route misses its 1e-6 agreement with the phi route on "
                     "phi(t^2) kernels (up to 1e-3 relative or 1e-7 of the peak)")


@dataclass
class Request:
    """One CLI invocation and what its output check needs to know."""

    id: str
    argv: list
    kind: str
    expect: dict = field(default_factory=dict)
    points: int = 0
    known_defect: str = None


@dataclass
class Round:
    requests: list
    configs: dict  # file name -> JSON text


def _weyl_steps(n):
    """Fractional parts of sqrt(p) for the first n primes."""
    primes, k = [], 2
    while len(primes) < n:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return [math.sqrt(p) % 1.0 for p in primes]


_STEPS = _weyl_steps(48)


class Draws:
    """Parameter draws for round ``index`` of a run.

    The k-th draw of every round is the k-th coordinate of a Kronecker
    sequence, frac(shift_k + index * sqrt(p_k)), whose shifts come from the
    seed.  Successive rounds so cover each parameter range evenly whatever
    the seed, and a run's medians over rounds depend little on it.
    """

    def __init__(self, workload, seed, index):
        self._shifts = random.Random(f"{workload}:{seed}")
        self._index = index
        self._k = 0
        self.rng = random.Random(f"{workload}:{seed}:{index}")  # for simulation seeds

    def uniform(self, lo, hi):
        u = (self._shifts.random() + self._index * _STEPS[self._k]) % 1.0
        self._k += 1
        return lo + (hi - lo) * u


def _g(x):
    return f"{x:.6g}"


def _config(m, lam, gamma, kbt, kernel, beta=1.0):
    return {"m": m, "lambda": lam, "beta": beta, "gamma": gamma, "kbt": kbt, "kernel": kernel}


def _draw_params(draw):
    return dict(
        m=float(_g(draw.uniform(0.5, 2.0))),
        lam=float(_g(draw.uniform(0.5, 2.0))),
        gamma=float(_g(draw.uniform(1.0, 4.0))),
        kbt=float(_g(draw.uniform(0.5, 2.0))),
    )


def _rouse(draw, n, lo, hi):
    return "rouse:[" + ",".join(_g(draw.uniform(lo, hi)) for _ in range(n)) + "]"


def _grid_size(spec):
    return int(spec.rsplit(":", 1)[1])


def _grid_sweep(draw):
    alpha = draw.uniform(0.3, 0.7)
    powerlaw = f"powerlaw:{_g(alpha)}"
    rouse = _rouse(draw, 3, 0.5, 8.0)
    gaussian_scale = float(_g(draw.uniform(0.5, 2.0)))
    gaussian = f"gaussian:{_g(gaussian_scale)}"
    # alpha >= 1 and scale in [1, 2] keep the cauchy measure at a fixed
    # number of log panels, so its cost does not swing with the draw
    cauchy = f"cauchy:{_g(draw.uniform(1.0, 1.5))},{_g(draw.uniform(1.0, 2.0))}"
    n = _grid_size(TRANSFORM_GRID)
    # every 25th frequency of the transform grid, written so that the CLI
    # parses exactly the same doubles the log grid produces
    shared = np.geomspace(1e-3, 1e3, n)[12::25]
    shared_arg = ",".join(repr(float(w)) for w in shared)

    trapped = _draw_params(draw)
    free = dict(_draw_params(draw), gamma=0.0)
    configs = {
        "trapped.json": _config(kernel=f"gaussian:{_g(draw.uniform(0.5, 2.0))}", **trapped),
        "free.json": _config(kernel=_rouse(draw, 3, 0.5, 8.0), **free),
        "trapped_powerlaw.json": TRAPPED_POWERLAW,
    }

    def transform(rid, kernel, route, omega=TRANSFORM_GRID, size=n, extra=(), **expect):
        argv = ["transform", "--kernel", kernel, "--omega", omega, *extra]
        return Request(rid, argv, "transform", dict(route=route, rows=size, **expect))

    def oracle(rid, kernel):
        return transform(rid, kernel, "numeric", omega=shared_arg, size=shared.size,
                         extra=("--route", "numeric"))

    reqs = [
        transform("transform-powerlaw", powerlaw, "closed_form",
                  oracle="transform-powerlaw-numeric", same_as="transform-powerlaw-cm"),
        transform("transform-powerlaw-cm", powerlaw, "cm_measure",
                  extra=("--route", "cm_measure"), oracle="transform-powerlaw-numeric"),
        oracle("transform-powerlaw-numeric", powerlaw),
        transform("transform-rouse", rouse, "closed_form", oracle="transform-rouse-numeric"),
        oracle("transform-rouse-numeric", rouse),
        transform("transform-one-plus-t-inverse", "one-plus-t-inverse", "closed_form",
                  oracle="transform-one-plus-t-inverse-numeric"),
        oracle("transform-one-plus-t-inverse-numeric", "one-plus-t-inverse"),
        transform("transform-gaussian", gaussian, "phi_t2_faddeeva",
                  oracle="transform-gaussian-numeric", gaussian_scale=gaussian_scale,
                  oracle_slack=(*PHI_ORACLE_SLACK, PHI_ORACLE_DEFECT)),
        oracle("transform-gaussian-numeric", gaussian),
        transform("transform-cauchy", cauchy, "phi_t2_faddeeva",
                  oracle="transform-cauchy-numeric",
                  oracle_slack=(*PHI_ORACLE_SLACK, PHI_ORACLE_DEFECT)),
        oracle("transform-cauchy-numeric", cauchy),
        Request("spectrum-trapped", ["spectrum", "--config", "trapped.json", "--grid", SPECTRUM_GRID],
                "spectrum", dict(rows=_grid_size(SPECTRUM_GRID), trapped=True, config="trapped.json")),
        Request("spectrum-free", ["spectrum", "--config", "free.json", "--grid", SPECTRUM_GRID],
                "spectrum", dict(rows=_grid_size(SPECTRUM_GRID), trapped=False, config="free.json")),
        transform("golden-transform-rouse", "rouse:1", "closed_form", omega=GOLDEN_GRID, size=9,
                  golden=("transform_rouse.csv", "csv", 1e-12)),
        Request("golden-spectrum", ["spectrum", "--config", "trapped_powerlaw.json", "--grid", GOLDEN_GRID],
                "spectrum", dict(rows=9, trapped=True, config="trapped_powerlaw.json",
                                 golden=("spectrum_trapped_powerlaw.csv", "csv", 1e-9))),
    ]
    for r in reqs:
        r.points = r.expect["rows"]
    return reqs, configs


def _msd_quadrature(draw):
    alpha = float(_g(draw.uniform(0.4, 0.5)))
    families = (
        ("powerlaw", f"powerlaw:{_g(alpha)}", dict(model="power", window="100:10000",
                                                   exponent=2.0 - alpha, tol=0.05)),
        ("rouse", _rouse(draw, 2, 0.5, 4.0), dict(model="power", window="100:10000",
                                                  exponent=1.0, tol=0.03)),
        ("one-plus-t-inverse", "one-plus-t-inverse", dict(model="tlogt", window="1000:10000",
                                                          drift=0.10)),
    )
    configs, reqs = {}, []
    for name, kernel, fit in families:
        p = _draw_params(draw)
        trapped, free = f"{name}-trapped.json", f"{name}-free.json"
        configs[trapped] = _config(kernel=kernel, **p)
        configs[free] = _config(kernel=kernel, **dict(p, gamma=0.0))
        x_csv = f"msd-x-{name}.csv"
        reqs += [
            Request(f"equipartition-{name}-trapped", ["equipartition", "--config", trapped],
                    "equipartition", dict(trapped=True)),
            Request(f"equipartition-{name}-free", ["equipartition", "--config", free],
                    "equipartition", dict(trapped=False)),
            Request(f"msd-x-{name}", ["msd", "--config", trapped, "--quantity", "x",
                                      "--t-grid", MSD_X_GRID, "-o", x_csv],
                    "msd", dict(quantity="x", rows=_grid_size(MSD_X_GRID), output=x_csv)),
            Request(f"fit-{name}", ["fit-exponent", "--input", x_csv, "--window", fit["window"],
                                    "--model", fit["model"]], "fit", fit),
            Request(f"msd-v-{name}", ["msd", "--config", trapped, "--quantity", "v",
                                      "--t-grid", MSD_V_GRID],
                    "msd", dict(quantity="v", rows=_grid_size(MSD_V_GRID),
                                saturation=2.0 * p["kbt"] / p["gamma"])),
        ]
    for name, kernel, gamma in STIFF_TRAPS:
        cfg = f"stiff-{name}.json"
        configs[cfg] = _config(m=1.0, lam=0.0, gamma=gamma, kbt=1.0, kernel=kernel)
        reqs.append(Request(f"stiff-trap-{name}", ["equipartition", "--config", cfg],
                            "equipartition", dict(trapped=True), known_defect=STIFF_TRAP_DEFECT))
    configs["trapped_powerlaw.json"] = TRAPPED_POWERLAW
    configs["trapped_rouse.json"] = TRAPPED_ROUSE
    reqs += [
        Request("golden-equipartition", ["equipartition", "--config", "trapped_powerlaw.json"],
                "equipartition", dict(trapped=True,
                                      golden=("equipartition_trapped_powerlaw.json", "json", 1e-6))),
        Request("golden-msd-x", ["msd", "--config", "trapped_rouse.json", "--quantity", "x",
                                 "--t-grid", "log:100:10000:12", "-o", "golden-msd-x.csv"],
                "msd", dict(quantity="x", rows=12, output="golden-msd-x.csv",
                            golden=("msd_trapped_rouse.csv", "csv", 1e-7))),
        Request("golden-fit", ["fit-exponent", "--input", "golden-msd-x.csv",
                               "--window", "100:10000", "--model", "power"],
                "fit", dict(model="power", exponent=1.0, tol=0.03,
                            golden=("fit_msd_trapped_rouse.json", "json", 1e-5))),
    ]
    for r in reqs:
        if r.kind == "msd":
            r.points = r.expect["rows"]
    return reqs, configs


MC_DT = 0.1


def _monte_carlo(draw):
    p = _draw_params(draw)  # gamma/m <= 8 keeps the spectral grid's cutoff at 50
    configs = {
        "rouse.json": _config(kernel=_rouse(draw, 3, 0.5, 4.0), **p),
        "powerlaw.json": _config(kernel=f"powerlaw:{_g(draw.uniform(0.3, 0.7))}", **p),
        "trapped_rouse.json": TRAPPED_ROUSE,
    }
    sim_seed = draw.rng.randrange(2 ** 31)

    def simulate(rid, cfg, method, n_paths, t_max, seed=sim_seed, golden=None):
        argv = ["simulate", "--config", cfg, "--method", method, "--n-paths", str(n_paths),
                "--dt", _g(MC_DT), "--t-max", _g(t_max), "--seed", str(seed)]
        n_steps = int(round(t_max / MC_DT))
        expect = dict(n_paths=n_paths, rows=n_steps, config=cfg)
        if golden:
            expect["golden"] = golden
        return Request(rid, argv, "simulate", expect, points=n_paths * n_steps)

    reqs = [
        simulate("simulate-markovian-rouse", "rouse.json", "markovian", 500, 100.0),
        simulate("simulate-markovian-powerlaw", "powerlaw.json", "markovian", 500, 100.0,
                 seed=sim_seed + 1),
        simulate("simulate-spectral-100", "powerlaw.json", "spectral", 500, 100.0,
                 seed=sim_seed + 2),
        simulate("simulate-spectral-200", "powerlaw.json", "spectral", 500, 200.0,
                 seed=sim_seed + 3),
        simulate("golden-simulate", "trapped_rouse.json", "markovian", 64, 5.0, seed=7,
                 golden=("simulate_rouse_seed7.csv", "simulate", "simulate_rouse_seed7_summary.json")),
    ]
    return reqs, configs


_GENERATORS = {
    "grid-sweep": _grid_sweep,
    "msd-quadrature": _msd_quadrature,
    "monte-carlo": _monte_carlo,
}
WORKLOADS = tuple(_GENERATORS)


def generate(workload, seed, index):
    """The requests and config files of round ``index`` of a workload."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    reqs, configs = _GENERATORS[workload](Draws(workload, seed, index))
    texts = {name: json.dumps(doc, sort_keys=True) for name, doc in configs.items()}
    return Round(reqs, texts)
