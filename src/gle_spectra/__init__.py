"""Stationary generalized Langevin dynamics in a harmonic trap.

Memory-kernel presets and their Laplace measures, Fourier cosine/sine
transforms, spectral densities of the stationary solution, mean-squared
displacement growth laws, equipartition-of-energy verification, and Monte
Carlo cross-validation via Markovian embedding or direct spectral sampling.
"""

from .errorfn import dawson, erfc_complex, faddeeva
from .errors import (
    ConfigError,
    DivergentTail,
    FitRejectedError,
    GleError,
    KernelDomainError,
    NoBernsteinRepresentation,
    OscillationPreconditionError,
    PronyAccuracyError,
    QuadratureError,
    SdeError,
    ToleranceNotMet,
    TransformDomainError,
    UnrepresentableError,
)
from .kernels import (
    BernsteinMeasure,
    Cauchy,
    ExpMixture,
    Gaussian,
    GeneralizedRouse,
    GleParams,
    MemoryKernel,
    OnePlusTInverse,
    PowerLaw,
    TailClass,
    ValidationReport,
    kernel_eval,
    parse_kernel_spec,
    validate_kernel,
)
from .moments import (
    POSITION_INTEGRAL,
    VELOCITY_INTEGRAL,
    EquipartitionReport,
    GrowthFit,
    MsdCurve,
    compute_msd_curve,
    cross_cov,
    equipartition_report,
    fit_growth_exponent,
    msd_v,
    msd_x,
    var_v0,
    var_x0,
)
from .quad import (
    QuadConfig,
    integrate_adaptive,
    integrate_geometric,
    integrate_oscillatory,
    integrate_to_infinity,
)
from .simulate import (
    Ensemble,
    LinearSde,
    PronyFit,
    ensemble_msd,
    lyapunov_stationary_cov,
    markovian_embedding,
    prony_fit,
    simulate_paths,
    spectral_sample,
)
from .spectra import NearZeroAsymptote, SpectralDensityCtx, near_zero_asymptote, r11, r12, r22
from .transforms import (
    AbelianAsymptote,
    TransformPair,
    abelian_limits,
    kcos_ksin_grid,
    transform,
    transform_complex,
)

__version__ = "0.1.0"
