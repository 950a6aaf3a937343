import numpy as np
import pytest

from carenets.errors import ValidationError
from carenets.scenario import CHECKS
from carenets.structure import (Aggregation, BoolMatrix, Process, Resource,
                                ResourceClass, StructuralModel,
                                apply_chronic_abstraction, boolean_subtract,
                                build_projection, classify_resource,
                                enumerate_dof)

from helpers import aggregate_members, bool_matrix, random_model

F = ResourceClass.TRANSFORMATION
D = ResourceClass.DECISION
M = ResourceClass.MEASUREMENT
N = ResourceClass.TRANSPORTATION


class TestClassification:
    def test_transform_wins(self):
        assert classify_resource({F, M}) is F

    def test_single_capability(self):
        assert classify_resource({N}) is N

    def test_precedence_order(self):
        assert classify_resource({D, M, N}) is D
        assert classify_resource({M, N}) is M

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            classify_resource(set())


class TestBooleanSubtract:
    def test_elementwise(self):
        j = bool_matrix([[1, 1], [0, 1]])
        k = bool_matrix([[0, 1], [0, 0]])
        assert boolean_subtract(j, k).to_dense().tolist() == [[1, 0], [0, 1]]

    def test_no_constraints_keeps_knowledge(self):
        j = bool_matrix([[1, 0, 1], [1, 1, 0]])
        assert boolean_subtract(j, BoolMatrix.zeros(j.shape)) == j

    def test_empty_knowledge_absorbs(self):
        k = bool_matrix([[1, 1], [1, 1]])
        j = BoolMatrix.zeros(k.shape)
        assert boolean_subtract(j, k).coords == frozenset()

    def test_self_subtraction_empties(self):
        j = bool_matrix([[1, 0], [1, 1]])
        assert boolean_subtract(j, j).coords == frozenset()

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            boolean_subtract(BoolMatrix.zeros((2, 2)),
                             BoolMatrix.zeros((2, 3)))

    def test_constraint_outside_knowledge_is_vacuous(self):
        j = bool_matrix([[1, 0]])
        k = bool_matrix([[0, 1]])
        assert boolean_subtract(j, k) == j


class TestDofEnumeration:
    def test_zeros(self):
        assert enumerate_dof(BoolMatrix.zeros((3, 4))) == []

    def test_identity_order(self):
        a = bool_matrix(np.eye(2, dtype=int))
        assert enumerate_dof(a) == [(0, 0), (1, 1)]

    def test_resource_major_order(self):
        a = bool_matrix([[1, 1], [1, 0]])
        assert enumerate_dof(a) == [(0, 0), (1, 0), (0, 1)]

    def test_count_matches_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dense = (rng.random((rng.integers(1, 7),
                                 rng.integers(1, 7))) < 0.3).astype(int)
            a = bool_matrix(dense)
            assert len(a.coords) == len(enumerate_dof(a)) == dense.sum()


class TestProjection:
    def test_single_cell(self):
        a = BoolMatrix.from_pairs((3, 2), [(2, 1)])
        proj = build_projection(a)
        dense = proj.to_dense()
        assert dense.shape == (1, 6)
        assert dense[0, 1 * 3 + 2] == 1 and dense.sum() == 1

    def test_projects_concept_to_ones(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dense = (rng.random((rng.integers(1, 8),
                                 rng.integers(1, 8))) < 0.4).astype(int)
            a = bool_matrix(dense)
            proj = build_projection(a)
            assert np.array_equal(proj.apply(a.vec_dense()),
                                  np.ones(len(a.coords), dtype=int))
            assert np.array_equal(proj.to_dense() @ a.vec_dense(),
                                  np.ones(len(a.coords), dtype=int))


def tiny_model(constraints=()):
    resources = [Resource("ward", F), Resource("desk", D),
                 Resource("scanner", M),
                 Resource("porter", N)]
    processes = [Process("treat", F), Process("advise", D),
                 Process("scan", M),
                 Process("move to scanner", N, origin=0, destination=2),
                 Process("move back", N, origin=2, destination=0)]
    knowledge = [(0, 0), (1, 0), (1, 1), (2, 2), (3, 3), (4, 3)]
    return StructuralModel.build(resources, processes, knowledge,
                                 constraints)


class TestModelValidation:
    def test_builds_and_counts(self):
        model = tiny_model()
        assert model.dof_count == 6
        assert [r.name for r in model.buffers] == ["ward", "desk", "scanner"]

    def test_block_mask_rejects_transform_at_transport(self):
        resources = [Resource("ward", F),
                     Resource("porter", N)]
        processes = [Process("treat", F)]
        with pytest.raises(ValidationError) as err:
            StructuralModel.build(resources, processes, [(0, 1)])
        assert err.value.check == "knowledge-block-mask"

    def test_declared_class_must_match_capabilities(self):
        resources = [Resource("ward", F)]
        processes = [Process("scan", M)]
        with pytest.raises(ValidationError) as err:
            StructuralModel.build(resources, processes, [(0, 0)])
        assert err.value.check == "resource-class-consistency"

    @pytest.mark.parametrize("desk, plan, check, message", [
        ("ward", "plan", "resources", "duplicate resource name 'ward'"),
        ("desk", "treat", "processes", "duplicate process name 'treat'")])
    def test_duplicate_name_rejected_under_its_check(self, desk, plan,
                                                     check, message):
        resources = [Resource("ward", F), Resource(desk, D)]
        processes = [Process("treat", F), Process(plan, D)]
        with pytest.raises(ValidationError) as err:
            StructuralModel.build(resources, processes, [])
        assert (err.value.check, str(err.value)) == (check, message)

    def test_entity_order_must_group_classes(self):
        resources = [Resource("desk", D), Resource("ward", F)]
        with pytest.raises(ValidationError):
            StructuralModel.build(resources, [], [])

    def test_transport_needs_endpoints(self):
        resources = [Resource("ward", F),
                     Resource("porter", N)]
        processes = [Process("move", N)]
        with pytest.raises(ValidationError) as err:
            StructuralModel.build(resources, processes, [(0, 1)])
        assert err.value.check == "transport-endpoints"

    def test_constraints_remove_dofs(self):
        full = tiny_model()
        constrained = tiny_model(constraints=[(1, 0)])
        assert constrained.dof_count == full.dof_count - 1
        assert (1, 0) not in constrained.concept.coords


class TestAggregation:
    def test_identity_keeps_buffers(self):
        model = tiny_model()
        agg = Aggregation(("a", "b", "c"),
                          bool_matrix(np.eye(3, dtype=int)))
        assert aggregate_members(agg, model.buffers) == \
            [["ward"], ["desk"], ["scanner"]]

    def test_functional_grouping(self):
        # a human specialist and their technical theatre act as one place
        surgeon = Resource("surgeon", F)
        theatre = Resource("operating room", F)
        agg = Aggregation(("surgical theatre",),
                          BoolMatrix.from_pairs((1, 2), [(0, 0), (0, 1)]))
        assert aggregate_members(agg, (surgeon, theatre)) == \
            [["surgeon", "operating room"]]

    def test_unassigned_buffer_rejected(self):
        with pytest.raises(ValidationError):
            Aggregation(("only",), BoolMatrix.from_pairs((1, 2), [(0, 0)]))

    def test_doubly_assigned_buffer_rejected(self):
        with pytest.raises(ValidationError):
            Aggregation(("a", "b"),
                        BoolMatrix.from_pairs((2, 1), [(0, 0), (1, 0)]))


def clinic_model():
    resources = [Resource("ward", F), Resource("lab", M),
                 Resource("outside clinic", M),
                 Resource("patient", N)]
    processes = [Process("treat", F), Process("test", M),
                 Process("monitor", M),
                 Process("ward to lab", N, origin=0, destination=1),
                 Process("lab to ward", N, origin=1, destination=0),
                 Process("enter", N, origin=2, destination=0),
                 Process("exit", N, origin=0, destination=2)]
    knowledge = [(0, 0), (1, 1), (2, 2)] + [(p, 3) for p in range(3, 7)]
    return StructuralModel.build(resources, processes, knowledge)


class TestChronicAbstraction:
    def test_eliminates_only_intra_clinic_transport(self):
        model = clinic_model()
        assert model.dof_count == 7
        reduced = apply_chronic_abstraction(model)
        assert reduced.dof_count == 5
        surviving = {reduced.processes[w].name
                     for w, _ in reduced.dof_list}
        assert "ward to lab" not in surviving
        assert "lab to ward" not in surviving
        assert {"treat", "test", "monitor", "enter", "exit"} <= surviving

    def test_aggregates_to_two_places(self):
        reduced = apply_chronic_abstraction(clinic_model())
        assert reduced.aggregation is not None
        assert set(reduced.aggregation.names) == \
            {"outside clinic", "healthcare clinic"}
        by_name = dict(zip(reduced.aggregation.names,
                           aggregate_members(reduced.aggregation,
                                             reduced.buffers)))
        assert by_name["outside clinic"] == ["outside clinic"]
        assert sorted(by_name["healthcare clinic"]) == ["lab", "ward"]

    def test_nothing_to_eliminate_keeps_dofs(self):
        resources = [Resource("ward", F),
                     Resource("outside clinic", M),
                     Resource("patient", N)]
        processes = [Process("treat", F),
                     Process("enter", N, origin=1, destination=0),
                     Process("exit", N, origin=0, destination=1)]
        model = StructuralModel.build(resources, processes,
                                      [(0, 0), (1, 2), (2, 2)])
        reduced = apply_chronic_abstraction(model)
        assert reduced.dof_count == model.dof_count == 3
        assert reduced.constraints == model.constraints

    def test_missing_outside_buffer_rejected(self):
        resources = [Resource("ward", F),
                     Resource("patient", N)]
        processes = [Process("treat", F)]
        model = StructuralModel.build(resources, processes, [(0, 0)])
        with pytest.raises(ValidationError) as err:
            apply_chronic_abstraction(model)
        assert err.value.check == "aggregation-partition"

    def test_never_increases_dofs_or_touches_non_transport(self):
        rng = np.random.default_rng(23)
        tried = 0
        while tried < 20:
            model = random_model(rng, max_buffers=4, max_processes=6)
            names = {r.name for r in model.buffers}
            if "buffer 0" not in names or model.n_buffers < 2:
                continue
            crossing = [p for p in model.processes if p.is_transport
                        and ((p.origin == 0) != (p.destination == 0))]
            if not crossing:
                continue
            tried += 1
            clinic = [b for b, _ in enumerate(model.buffers) if b != 0]
            reduced = apply_chronic_abstraction(model, clinic)
            assert reduced.dof_count <= model.dof_count
            before = {(w, v) for w, v in model.dof_list
                      if not model.processes[w].is_transport}
            after = {(w, v) for w, v in reduced.dof_list
                     if not reduced.processes[w].is_transport}
            assert before == after

    def test_acute_fixture_reduces_to_enter_and_exit(self, acute):
        reduced = apply_chronic_abstraction(acute.model)
        assert reduced.dof_count == 16
        transports = {reduced.processes[w].name
                      for w, _ in reduced.dof_list
                      if reduced.processes[w].is_transport}
        assert transports == {"Go from outside clinic to reception",
                              "Go from reception to outside clinic"}


@pytest.mark.parametrize("build, check, message", [
    (lambda: BoolMatrix.from_pairs((2, 2), [(2, 0)]),
     "structure", "coordinate (2, 0) outside matrix shape (2, 2)"),
    (lambda: build_projection(BoolMatrix.from_pairs((2, 2), [(0, 0)]))
     .apply(np.ones(3)),
     "structure", "expected vector of length 4, got shape (3,)"),
    (lambda: Aggregation(("only",),
                         BoolMatrix.from_pairs((2, 2), [(0, 0), (1, 1)])),
     "aggregation-partition", "1 aggregate names for 2 rows"),
    (lambda: StructuralModel.build([Resource("ward", F)],
                                   [Process("treat", F)],
                                   BoolMatrix.zeros((1, 2))),
     "structure",
     "knowledge base shape (1, 2) does not match 1 processes x 1 resources"),
    (lambda: StructuralModel.build(
        [Resource("ward", F)], [Process("treat", F)], [(0, 0)],
        aggregation=Aggregation(
            ("all",), BoolMatrix.from_pairs((1, 2), [(0, 0), (0, 1)]))),
     "aggregation-partition", "aggregation covers 2 buffers, model has 1"),
    (lambda: StructuralModel.build(
        [Resource("ward", F), Resource("porter", N)],
        [Process("treat", F), Process("move", N, origin=0, destination=1)],
        [(0, 0), (1, 1)]),
     "transport-endpoints",
     "transport process 'move' destination 1 is not a buffer id"),
    (lambda: StructuralModel.build([Resource("ward", F)],
                                   [Process("treat", F, origin=0)],
                                   [(0, 0)]),
     "transport-endpoints",
     "non-transport process 'treat' must not carry transport endpoints"),
    (lambda: apply_chronic_abstraction(clinic_model(), [7]),
     "aggregation-partition", "clinic buffer id 7 is not a buffer"),
    (lambda: classify_resource(["wizard"]),
     "structure", "unknown capabilities: {'wizard'}")],
    ids=["matrix-coordinate", "projection-length", "aggregate-names",
         "knowledge-width", "aggregation-width", "endpoint-range",
         "endpoint-on-non-transport", "clinic-buffer", "capabilities"])
def test_bad_input_rejected(build, check, message):
    with pytest.raises(ValidationError) as err:
        build()
    assert (err.value.check, str(err.value)) == (check, message)


def _valid_inputs():
    """Arguments of a model that builds: treatment, advice and a transport
    from the ward to the desk, each at its own resource."""
    return {"resources": [Resource("ward", F), Resource("desk", D),
                          Resource("porter", N)],
            "processes": [Process("treat", F), Process("advise", D),
                          Process("move", N, origin=0, destination=1)],
            "knowledge": [(0, 0), (1, 1), (2, 2)]}


#: One defect per check that StructuralModel.build runs, each failing
#: only that check.
_BUILD_DEFECTS = {
    "resources": lambda kw: kw["resources"].append(Resource("porter", N)),
    "processes": lambda kw: kw["processes"].append(
        Process("move", N, origin=0, destination=1)),
    "knowledge-block-mask": lambda kw: kw["knowledge"].append((0, 2)),
    "transport-endpoints": lambda kw: kw["processes"].__setitem__(
        2, Process("move", N, origin=0)),
    # the ward serves only advice, so it classifies as a decision resource
    "resource-class-consistency": lambda kw: kw["knowledge"].__setitem__(
        0, (1, 0)),
    "constraints": lambda kw: kw.update(constraints=BoolMatrix.zeros((1, 1))),
    "aggregation-partition": lambda kw: kw.update(aggregation=Aggregation(
        ("all",), BoolMatrix.from_pairs((1, 1), [(0, 0)]))),
}


@pytest.mark.parametrize("pair", [
    ("resources", "processes"),
    ("processes", "knowledge-block-mask"),
    ("knowledge-block-mask", "transport-endpoints"),
    ("transport-endpoints", "resource-class-consistency"),
    ("resource-class-consistency", "constraints"),
    ("constraints", "aggregation-partition")], ids="/".join)
def test_build_runs_its_checks_in_listed_order(pair):
    # build raises at its first failure, so of two failing checks it
    # raises the one it runs first: the one CHECKS lists first
    for defects in [(check,) for check in pair] + [pair]:
        inputs = _valid_inputs()
        for check in defects:
            _BUILD_DEFECTS[check](inputs)
        with pytest.raises(ValidationError) as err:
            StructuralModel.build(**inputs)
        assert err.value.check == min(defects, key=CHECKS.index)
