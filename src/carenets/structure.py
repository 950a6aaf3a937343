"""Structural model of a care delivery system: form, function, and concept.

Resources (form) and processes (function) are classified into four
functional classes. A boolean knowledge base allocates processes to
resources; removing constrained allocations yields the concept matrix,
whose filled cells are the system's structural degrees of freedom. A
projection operator maps the vectorized concept matrix onto the dense
degree-of-freedom index that the Petri-net layer uses for its transitions.

A model is mutable only while :meth:`StructuralModel.build` assembles it;
the returned object is frozen and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError


class ResourceClass(Enum):
    """Functional classification shared by resources and processes."""

    TRANSFORMATION = "transformation"
    DECISION = "decision"
    MEASUREMENT = "measurement"
    TRANSPORTATION = "transportation"

    @property
    def rank(self) -> int:
        """Precedence position: transform > decide > measure > transport."""
        return _CLASS_ORDER.index(self)


_CLASS_ORDER = (
    ResourceClass.TRANSFORMATION,
    ResourceClass.DECISION,
    ResourceClass.MEASUREMENT,
    ResourceClass.TRANSPORTATION,
)


def classify_resource(capabilities: Iterable[ResourceClass]) -> ResourceClass:
    """Classify a resource from the process classes it can perform.

    The class with the highest precedence wins: a resource that can
    transform is a transformation resource no matter what else it can do,
    and so on down to transportation.
    """
    caps = set(capabilities)
    if not caps:
        raise ValidationError(
            "cannot classify a resource with an empty capability set",
            check="resource-class-consistency",
        )
    for cls in _CLASS_ORDER:
        if cls in caps:
            return cls
    raise ValidationError(f"unknown capabilities: {caps!r}")


@dataclass(frozen=True)
class Resource:
    """One system resource. Non-transportation resources double as buffers."""

    name: str
    cls: ResourceClass

    @property
    def is_buffer(self) -> bool:
        return self.cls is not ResourceClass.TRANSPORTATION


@dataclass(frozen=True)
class Process:
    """One system process. Transportation processes carry an origin and
    destination buffer index; all other classes happen in place."""

    name: str
    cls: ResourceClass
    origin: int | None = None
    destination: int | None = None

    @property
    def is_transport(self) -> bool:
        return self.cls is ResourceClass.TRANSPORTATION


@dataclass(frozen=True)
class BoolMatrix:
    """Boolean matrix stored sparsely as a set of (row, col) coordinates."""

    shape: tuple[int, int]
    coords: frozenset[tuple[int, int]]

    @classmethod
    def from_pairs(cls, shape: tuple[int, int],
                   pairs: Iterable[tuple[int, int]]) -> "BoolMatrix":
        rows, cols = shape
        coords = frozenset((int(w), int(v)) for w, v in pairs)
        for w, v in coords:
            if not (0 <= w < rows and 0 <= v < cols):
                raise ValidationError(
                    f"coordinate ({w}, {v}) outside matrix shape {shape}")
        return cls(shape, coords)

    @classmethod
    def zeros(cls, shape: tuple[int, int]) -> "BoolMatrix":
        return cls(shape, frozenset())

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=int)
        for w, v in self.coords:
            dense[w, v] = 1
        return dense

    def vec_dense(self) -> np.ndarray:
        """Column-stacked vectorization as a dense 0/1 vector."""
        rows, cols = self.shape
        vec = np.zeros(rows * cols, dtype=int)
        for w, v in self.coords:
            vec[vec_index(w, v, rows)] = 1
        return vec


def vec_index(w: int, v: int, n_rows: int) -> int:
    """Position of cell (w, v) under column-stacked vectorization."""
    return v * n_rows + w


def boolean_subtract(j: BoolMatrix, k: BoolMatrix) -> BoolMatrix:
    """Element-wise ``j AND NOT k``. Shapes must match exactly."""
    if j.shape != k.shape:
        raise ValidationError(
            f"shape mismatch: {j.shape} vs {k.shape}", check="constraints")
    return BoolMatrix(j.shape, j.coords - k.coords)


def enumerate_dof(concept: BoolMatrix) -> list[tuple[int, int]]:
    """Filled cells of the concept matrix in vectorization order.

    Column-stacked vectorization makes the order resource-major: all
    processes available at resource 0 first, then resource 1, and so on.
    The position of a pair in this list is its degree-of-freedom index.
    """
    return sorted(concept.coords, key=lambda wv: (wv[1], wv[0]))


def dof_key(process: str, resource: str) -> str:
    """Key addressing one degree of freedom: its process at its resource,
    as transition labels and the duration/cost tables name it."""
    return f"{process} @ {resource}"


@dataclass(frozen=True)
class Projection:
    """Selector of concept-matrix cells, one elementary row per degree of
    freedom. Stored as the vector positions those rows pick out."""

    vec_length: int
    positions: tuple[int, ...]

    @property
    def dof_count(self) -> int:
        return len(self.positions)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector)
        if vector.shape != (self.vec_length,):
            raise ValidationError(
                f"expected vector of length {self.vec_length}, "
                f"got shape {vector.shape}")
        return vector[list(self.positions)]

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.dof_count, self.vec_length), dtype=int)
        for i, pos in enumerate(self.positions):
            dense[i, pos] = 1
        return dense


def build_projection(concept: BoolMatrix) -> Projection:
    """Projection whose i-th row selects the i-th degree of freedom."""
    n_rows = concept.shape[0]
    positions = tuple(vec_index(w, v, n_rows)
                      for w, v in enumerate_dof(concept))
    return Projection(concept.shape[0] * concept.shape[1], positions)


@dataclass(frozen=True)
class Aggregation:
    """Grouping of buffers into aggregate places.

    The matrix has one row per aggregate and one column per buffer; every
    buffer must belong to exactly one aggregate, and no two aggregates
    may share a name, since places are looked up by name.
    """

    names: tuple[str, ...]
    matrix: BoolMatrix

    def __post_init__(self):
        n_agg, n_buf = self.matrix.shape
        if len(self.names) != n_agg:
            raise ValidationError(
                f"{len(self.names)} aggregate names for {n_agg} rows",
                check="aggregation-partition")
        for i, name in enumerate(self.names):
            if name in self.names[:i]:
                raise ValidationError(f"duplicate aggregate name {name!r}",
                                      check="aggregation-partition")
        owners: dict[int, int] = {}
        for i, j in sorted(self.matrix.coords):
            if j in owners:
                raise ValidationError(
                    f"buffer column {j} belongs to aggregates {owners[j]} "
                    f"and {i}", check="aggregation-partition")
            owners[j] = i
        missing = [j for j in range(n_buf) if j not in owners]
        if missing:
            raise ValidationError(
                f"buffer columns {missing} belong to no aggregate",
                check="aggregation-partition")


@dataclass(frozen=True)
class StructuralModel:
    """Frozen structural model: entities, knowledge base, constraints, and
    the derived concept matrix with its degree-of-freedom index."""

    resources: tuple[Resource, ...]
    processes: tuple[Process, ...]
    knowledge: BoolMatrix
    constraints: BoolMatrix
    concept: BoolMatrix
    dof_list: tuple[tuple[int, int], ...]
    projection: Projection
    aggregation: Aggregation | None = None

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, resources: Sequence[Resource],
              processes: Sequence[Process],
              knowledge: BoolMatrix | Iterable[tuple[int, int]],
              constraints: BoolMatrix | Iterable[tuple[int, int]] | None = None,
              aggregation: Aggregation | None = None) -> "StructuralModel":
        """Validate all inputs, derive the concept matrix, and freeze.

        Raises :class:`ValidationError` at the first failure, running its
        checks in the order ``scenario.CHECKS`` lists them, so the checks
        after a failing one never run."""
        resources = tuple(resources)
        processes = tuple(processes)
        _check_entities(resources, "resource", "resources")
        _check_entities(processes, "process", "processes")

        shape = (len(processes), len(resources))
        if not isinstance(knowledge, BoolMatrix):
            knowledge = BoolMatrix.from_pairs(shape, knowledge)
        if knowledge.shape != shape:
            raise ValidationError(
                f"knowledge base shape {knowledge.shape} does not match "
                f"{len(processes)} processes x {len(resources)} resources")
        if constraints is None:
            constraints = BoolMatrix.zeros(shape)
        elif not isinstance(constraints, BoolMatrix):
            constraints = BoolMatrix.from_pairs(shape, constraints)

        _check_block_mask(processes, resources, knowledge)
        _check_transport_endpoints(processes, resources)
        _check_declared_classes(processes, resources, knowledge)

        concept = boolean_subtract(knowledge, constraints)
        dof_list = tuple(enumerate_dof(concept))
        projection = build_projection(concept)

        if aggregation is not None:
            n_buffers = sum(1 for r in resources if r.is_buffer)
            if aggregation.matrix.shape[1] != n_buffers:
                raise ValidationError(
                    f"aggregation covers {aggregation.matrix.shape[1]} "
                    f"buffers, model has {n_buffers}",
                    check="aggregation-partition")

        return cls(resources, processes, knowledge, constraints,
                   concept, dof_list, projection, aggregation)

    # -- views ----------------------------------------------------------

    @property
    def n_resources(self) -> int:
        return len(self.resources)

    @property
    def n_processes(self) -> int:
        return len(self.processes)

    @property
    def buffers(self) -> tuple[Resource, ...]:
        return tuple(r for r in self.resources if r.is_buffer)

    @property
    def n_buffers(self) -> int:
        return len(self.buffers)

    @property
    def transformation_processes(self) -> tuple[Process, ...]:
        return tuple(p for p in self.processes
                     if p.cls is ResourceClass.TRANSFORMATION)

    @property
    def dof_count(self) -> int:
        return len(self.dof_list)

    def dof_table(self) -> list[tuple[int, Process, Resource]]:
        """Deterministic (index, process, resource) listing of every DOF."""
        return [(i, self.processes[w], self.resources[v])
                for i, (w, v) in enumerate(self.dof_list)]


def _check_entities(entities, kind: str, check: str) -> None:
    names = set()
    last_rank = 0
    for ent in entities:
        if ent.name in names:
            raise ValidationError(f"duplicate {kind} name {ent.name!r}",
                                  check=check)
        names.add(ent.name)
        if ent.cls.rank < last_rank:
            raise ValidationError(
                f"{kind} list must group classes in precedence order "
                f"(transformation, decision, measurement, transportation); "
                f"{ent.name!r} is out of order", check=check)
        last_rank = ent.cls.rank


def _check_block_mask(processes, resources, knowledge: BoolMatrix) -> None:
    # Legal allocations form a lower-block-triangular pattern: a process
    # may only be allocated to a resource of equal or higher precedence.
    for w, v in knowledge.coords:
        if processes[w].cls.rank < resources[v].cls.rank:
            raise ValidationError(
                f"{processes[w].cls.value} process {processes[w].name!r} "
                f"cannot be allocated to {resources[v].cls.value} resource "
                f"{resources[v].name!r}", check="knowledge-block-mask")


def _check_transport_endpoints(processes, resources) -> None:
    """Raise at the first process whose transport endpoints are wrong: a
    transport process lacking an origin or destination buffer, or naming
    a buffer id that does not exist, or a non-transport process carrying
    an endpoint."""
    n_buffers = sum(1 for r in resources if r.is_buffer)
    for p in processes:
        if not p.is_transport:
            if p.origin is None and p.destination is None:
                continue
            message = (f"non-transport process {p.name!r} must not carry "
                       f"transport endpoints")
        elif p.origin is None or p.destination is None:
            message = (f"transport process {p.name!r} needs an origin and a "
                       f"destination buffer")
        elif not 0 <= p.origin < n_buffers:
            message = (f"transport process {p.name!r} origin {p.origin} is "
                       f"not a buffer id")
        elif not 0 <= p.destination < n_buffers:
            message = (f"transport process {p.name!r} destination "
                       f"{p.destination} is not a buffer id")
        else:
            continue
        raise ValidationError(message, check="transport-endpoints")


def _check_declared_classes(processes, resources, knowledge: BoolMatrix) -> None:
    # A resource with allocated processes must classify, by precedence,
    # to exactly its declared class. Resources with an empty column keep
    # whatever class their author declared.
    by_resource: dict[int, set[ResourceClass]] = {}
    for w, v in knowledge.coords:
        by_resource.setdefault(v, set()).add(processes[w].cls)
    for v, caps in sorted(by_resource.items()):
        derived = classify_resource(caps)
        if derived is not resources[v].cls:
            raise ValidationError(
                f"resource {resources[v].name!r} is declared "
                f"{resources[v].cls.value} but its allocated processes "
                f"classify it as {derived.value}",
                check="resource-class-consistency")


#: Without explicit clinic buffers, every buffer not named OUTSIDE_CLINIC
#: lies inside the clinic. The clinic aggregate is named CLINIC; the
#: outside aggregate takes the name of its one buffer, or OUTSIDE_CLINIC
#: when it holds several.
OUTSIDE_CLINIC = "outside clinic"
CLINIC = "healthcare clinic"


def apply_chronic_abstraction(model: StructuralModel,
                              clinic_buffers: Iterable[int] | None = None,
                              ) -> StructuralModel:
    """Refocus a model on what happens inside a clinic rather than how
    individuals move around within it.

    Movements whose origin and destination are both inside the clinic are
    treated as negligible and eliminated through the constraint matrix;
    movements that enter or exit the clinic survive. All clinic buffers
    are then grouped into a single aggregate place, leaving exactly two
    places: the clinic and the outside world.
    """
    buffers = model.buffers
    if clinic_buffers is None:
        clinic = {b for b, r in enumerate(buffers) if r.name != OUTSIDE_CLINIC}
    else:
        clinic = {int(b) for b in clinic_buffers}
        for b in clinic:
            if not (0 <= b < len(buffers)):
                raise ValidationError(f"clinic buffer id {b} is not a buffer",
                                      check="aggregation-partition")
    outside = [b for b in range(len(buffers)) if b not in clinic]
    if not outside:
        raise ValidationError(
            f"model has no {OUTSIDE_CLINIC!r} buffer outside the clinic",
            check="aggregation-partition")
    if not clinic:
        raise ValidationError("clinic buffer set is empty",
                              check="aggregation-partition")

    crossing = [p for p in model.processes if p.is_transport
                and ((p.origin in clinic) != (p.destination in clinic))]
    if not crossing:
        raise ValidationError(
            "no transport capability enters or exits the clinic",
            check="aggregation-partition")

    inner = {w for w, p in enumerate(model.processes) if p.is_transport
             and p.origin in clinic and p.destination in clinic}
    eliminated = {(w, v) for w, v in model.concept.coords if w in inner}
    constraints = BoolMatrix(model.constraints.shape,
                             model.constraints.coords | eliminated)

    pairs = [(0, b) for b in outside] + [(1, b) for b in sorted(clinic)]
    outside_label = (buffers[outside[0]].name if len(outside) == 1
                     else OUTSIDE_CLINIC)
    aggregation = Aggregation(
        names=(outside_label, CLINIC),
        matrix=BoolMatrix.from_pairs((2, len(buffers)), pairs))

    return StructuralModel.build(model.resources, model.processes,
                                 model.knowledge, constraints, aggregation)
