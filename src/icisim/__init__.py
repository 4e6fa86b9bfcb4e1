"""Interdependent power-grid / cellular / street-network simulator.

Builds seeded scenarios coupling a street grid, a hexagonal cell layout and
a bipartite supply grid, quantifies how station power shortfalls deviate
street flows, and solves the budgeted backup-power allocation game against
stealth-constrained attackers.
"""

from .coverage import (
    CoverageMap,
    Stations,
    build_coverage,
    hex_tiling,
)
from .errors import (
    DisconnectedError,
    FormatError,
    IcisimError,
    InfeasibleError,
    OverlapError,
    RankError,
    SingularError,
    TopologyError,
)
from .game import (
    AttackStrategy,
    DefenseStrategy,
    GameInstance,
    GameOutcome,
    StealthLevel,
    attacker_best_response,
    attacker_payoff,
    defender_caps,
    defender_payoff,
    equal_allocation,
    evaluate_profile,
    solve_defender_lp,
    stackelberg_equilibrium,
)
from .impact import (
    ImpactModel,
    build_impact_model,
    export_impact_csv,
    its_deviations,
)
from .power import PowerAssignment, build_assignment
from .scenario import Scenario, ScenarioConfig, generate, load, loads, save, scenarios_equal
from .traffic import (
    FlowNetwork,
    FlowPattern,
    StreetGraph,
    build_flow_matrix,
    network_from_matrix,
)

__version__ = "0.1.0"
