"""BENCHMARK.json agrees with the code, and the serve request plan is sound."""

import json
import re
from pathlib import Path

from perfbench import layers, run, w_batch
from perfbench.pins import PINS
from perfbench.w_serve import SCRAPES, WHATIFS, request_plan

BENCHMARK = json.loads((Path(__file__).parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_metric_lists_match_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == list(layers.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    parts = {name for name, _, _ in w_batch.PARTS}
    assert set(layers.EXPECTED) == parts | {"serve"}
    assert sum(share for _, _, share in w_batch.PARTS) == 1


def test_names_and_bounds_follow_the_format():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"] + BENCHMARK["workloads"]
    names = [m["name"] for m in metrics]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_serve_plan_covers_every_node_with_seed_independent_work():
    plan = request_plan(3)
    assert len(plan) == 1173
    assert sum(1 for kind, _ in plan if kind != "study") == SCRAPES
    assert request_plan(3) == plan
    assert request_plan(4) != plan
    plain = {p["node"] for kind, p in plan if kind == "study" and "overrides" not in p}
    assert plain == set(PINS["study"]["digests"])
    whatifs = [json.dumps(p, sort_keys=True) for _, p in plan if "overrides" in p]
    assert len(whatifs) == len(set(whatifs)) == WHATIFS
    assert {kind for kind, _ in plan} == {"study", "metrics", "status"}
    # Only the order and the what-if parameters depend on the seed.
    def composition(p):
        return sorted(json.dumps(r, sort_keys=True) for r in p if "overrides" not in r[1])
    assert composition(request_plan(4)) == composition(plan)
