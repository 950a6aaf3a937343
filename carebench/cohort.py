"""Synthetic cohort: N clones of the chronic fixture's individual.

Each clone gets a unique id, its own copy of the individual's
``assumed_values`` entries, and the fixture schedule shifted by an offset
drawn from the seed. Offsets are uniform over the multiples of 1/8 day in
``[0, span]``, where ``span`` is the fixture schedule's last time; every
fixture time and duration is a multiple of 1/8, so all shifted times stay
exact binary fractions and no completion lands an ulp after the start
that depends on it. The merged schedule is stably sorted by time.
Initial tokens and every transition capacity are scaled by N, so the
clones never contend for a place or a transition.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np

PER_INDIVIDUAL = ("health_state_values", "health_event_weights",
                  "health_event_durations")
OFFSET_STEP = 8  # offsets are whole multiples of 1/OFFSET_STEP day


def build_cohort(fixture: dict, n: int, seed: int) -> dict:
    """Return a scenario document with ``n`` shifted clones of the
    fixture's single individual."""
    if n < 1:
        raise ValueError("a cohort needs at least one individual")
    (individual,) = fixture["individuals"]
    base_id = individual["id"]
    assumed = fixture["assumed_values"]
    span = max(entry["time"] for entry in fixture["schedule"])
    rng = np.random.default_rng(seed)
    offsets = rng.integers(0, int(span * OFFSET_STEP) + 1, size=n)

    doc = {key: copy.deepcopy(value) for key, value in fixture.items()
           if key not in ("individuals", "schedule")}
    doc["individuals"] = []
    for section in PER_INDIVIDUAL:
        if section in assumed:
            doc["assumed_values"][section] = {}
    schedule = []
    for k in range(n):
        clone_id = f"{base_id}-{k:04d}"
        clone = copy.deepcopy(individual)
        clone["id"] = clone_id
        doc["individuals"].append(clone)
        for section in PER_INDIVIDUAL:
            if base_id in assumed.get(section, {}):
                doc["assumed_values"][section][clone_id] = copy.deepcopy(
                    assumed[section][base_id])
        shift = float(offsets[k]) / OFFSET_STEP
        for entry in fixture["schedule"]:
            shifted = dict(entry, individual=clone_id)
            shifted["time"] = entry["time"] + shift
            schedule.append(shifted)
    schedule.sort(key=lambda entry: entry["time"])
    doc["schedule"] = schedule
    doc["initial_tokens"] = {place: count * n for place, count
                             in fixture["initial_tokens"].items()}
    doc["transition_capacities"] = {key: n for key in capability_keys(fixture)}
    return doc


def capability_keys(fixture: dict) -> list[str]:
    """The ``"<process> @ <resource>"`` keys of the fixture's capabilities
    after its chronic abstraction, as named by its duration table."""
    return [key for key in fixture["assumed_values"]["durations"]
            if key != "default"]


def write_cohort(fixture_path: Path, out_path: Path, n: int,
                 seed: int) -> Path:
    fixture = json.loads(fixture_path.read_text(encoding="utf-8"))
    out_path.write_text(json.dumps(build_cohort(fixture, n, seed)),
                        encoding="utf-8")
    return out_path
