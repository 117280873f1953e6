"""Radar/WiFi spectrum-sharing coexistence analysis.

Building blocks for sharing studies between a rotating pulsed radar and
secondary wideband transmitters: radar detection budgets (Albersheim SNR
requirements, scan-integrated SNR), interference budgets and keep-out
distances for a single transmitter, aggregate-interference statistics and
protection contours for Poisson deployments, and WiFi-side throughput
under radar strobes.  The ``coexist`` CLI drives the same library from
JSON scenario files.
"""

from types import ModuleType as _ModuleType

from .numerics import (
    DegenerateFit,
    NoConvergence,
    NoSignChange,
    RootBracket,
    db_to_linear,
    fit_power_law,
    linear_to_db,
    q_inverse,
    q_tail,
    solve_root,
)
from .radar_detection import (
    RocPoint,
    RadarSystem,
    Target,
    albersheim_snr_linear,
    effective_snr,
    max_range,
    noise_power_w,
    pd_high_snr,
    pfa_from_threshold,
    pulses_per_scan,
    single_pulse_snr,
    snr_required_albersheim,
    snr_required_noncoherent,
    threshold_from_pfa,
)
from .propagation import (
    INFINITE_REJECTION,
    AntennaPattern,
    ConstantGain,
    Pattern,
    PathLossModel,
    PowerLawPathLoss,
    TabulatedPathLoss,
    attenuation,
    fdr_cochannel,
    fdr_general,
    gain_dbi,
    gain_linear,
    half_power_beamwidth_deg,
    invert_attenuation,
)
from .protection_single import (
    INFINITE_DISTANCE,
    InterferenceBudget,
    SecondaryUser,
    inr_vs_performance_drop,
    max_tolerable_interference,
    protection_distance,
    received_interference_w,
    single_user_gamma,
)
from .protection_multi import (
    CampbellStats,
    ConvergenceViolation,
    DeploymentField,
    MainSideLobePolicy,
    OptimalPolicy,
    OptimalityViolation,
    RadarBlindPolicy,
    SharingPolicy,
    TruncationTooSevere,
    campbell_stats,
    default_lobe_width_rad,
    optimize_beta,
    outage_probability,
    policy_profile,
    profile_area_m2,
    protected_area_m2,
    rescale_to_constraint,
    sample_aggregate,
    solve_main_side,
    solve_optimal_profile,
    solve_radar_blind,
    verify_local_optimality,
)
from .wifi_link import (
    DEFAULT_80211N,
    McsEntry,
    McsTable,
    WifiLink,
    average_throughput,
    duty_factor,
    mcs_rate,
    radar_interference_w,
    throughput_trace,
    throughput_vs_time,
    wifi_noise_w,
    wifi_sinr,
)
from .config import (
    MissingSection,
    ParseError,
    Scenario,
    ValidationError,
    fixture_path,
    load_scenario,
)

__version__ = "0.1.0"

# every public name imported above; the submodules themselves are not API
__all__ = ["__version__"] + sorted(
    name
    for name, value in vars().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
del _ModuleType
