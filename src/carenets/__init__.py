"""Co-simulation of a care-delivery timed Petri net with fuzzy health nets.

The package builds a timed Petri net of a care delivery system from a
structural model (resources, processes, and a boolean knowledge base),
pairs it with per-individual fuzzy timed Petri nets over clinical health
states, and runs both against one synchronized clock, emitting event
traces, cumulative operating cost, and health-outcome series.

The root exports the entry points: load or validate a scenario document,
compile it, and run it. The model types and the matrix oracles are
imported from their own modules (:mod:`carenets.structure`,
:mod:`carenets.delivery`, :mod:`carenets.health`,
:mod:`carenets.coordination`).
"""

from .coordination import RunResult
from .errors import (AmbiguousHealthEventError, CapacityError,
                     CareNetsError, InfeasibleCareActionError,
                     NotEnabledError, ScenarioError, SimulationError,
                     ValidationError)
from .scenario import (CompiledScenario, ScenarioDocument, compile_scenario,
                       load_scenario, validate_file)

__version__ = "0.1.0"
