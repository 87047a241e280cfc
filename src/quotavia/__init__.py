"""Bio-economic quota co-management simulator.

Closed-form two-group harvest negotiation, viability-domain analysis and
three closed-loop recommendation strategies, with brute-force oracles for
every closed form and an ODE simulation engine for strategy assessment.
"""

from .econ import (
    EconParams,
    NegotiationOutcome,
    Recruitment,
    Regime,
    binding_harvest,
    profit,
    realized_unmanaged_harvest,
    total_harvest,
    unmanaged_harvest,
)
from .oracle import OracleResult, best_response, equilibrium
from .viability import (
    CaseOrder,
    CriticalLevels,
    Maturity,
    Region,
    ViabilityBounds,
    ViabilityVerdict,
    catch_within_recruitment_flags,
    check_viability_domain,
    classify_region,
    critical_levels,
    recommendation_ceiling,
    recommendation_floor,
    recruitment_meets_floor_flags,
)
from .control import (
    ControllerState,
    Strategy,
    StrategySettings,
    conservative_recommend,
    ichthyocentric_recommend,
    qualitative_step,
)
from .engine import (
    CellResult,
    Event,
    Sample,
    SimConfig,
    TrajectoryRecord,
    simulate,
    sweep,
)
from .scenario import ConfigError, OutputSettings, ScenarioConfig
from .verification import DEFAULT_SEED, SuiteReport, run_all

__version__ = "0.1.0"
