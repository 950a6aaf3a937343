"""Co-simulation of a care-delivery timed Petri net with fuzzy health nets.

The package builds a timed Petri net of a care delivery system from a
structural model (resources, processes, and a boolean knowledge base),
pairs it with per-individual fuzzy timed Petri nets over clinical health
states, and runs both against one synchronized clock, emitting event
traces, cumulative operating cost, and health-outcome series.
"""

from .coordination import (DeliveryAction, HealthAction, Individual,
                           RunResult, cosimulate, induce_health_firing,
                           system_firing)
from .delivery import (DeliveryNet, FiringKind, FiringRecord, Marking,
                       build_incidence_in, build_incidence_out, step)
from .errors import (AmbiguousHealthEventError, CapacityError,
                     CareNetsError, InfeasibleCareActionError,
                     NotEnabledError, ScenarioError, SimulationError,
                     ValidationError)
from .health import (HealthEvent, HealthEventKind, HealthMarking, HealthNet,
                     fuzzy_step, health_outcome, sample_branch)
from .scenario import (CompiledScenario, ScenarioDocument, compile_scenario,
                       load_scenario, validate_file)
from .structure import (Aggregation, BoolMatrix, Process, Projection,
                        Resource, ResourceClass, StructuralModel,
                        aggregate_resources, apply_chronic_abstraction,
                        boolean_subtract, build_projection, classify_resource,
                        compute_dof, enumerate_dof)

__version__ = "0.1.0"
