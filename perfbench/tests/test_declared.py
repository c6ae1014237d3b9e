"""The metrics the code produces are the ones BENCHMARK.json declares."""

import json
import os

from perfbench import layers, run

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_end_to_end_metrics_match():
    doc = declared()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)


def test_per_layer_metrics_match():
    span = ("serve.shard.execute_wave", 1.0, 1.5, -1, None, {"n": 2, "ok": 2, "retry": 0, "aborts": 1}, 0.5)
    serve = layers.serve_layers([span], [], (0.0, 2.0), committed=2)
    sweep = {"por": False, "scopes": {"s": {"states": 3, "transitions": 5, "dedup_hits": 2}}}
    mc = layers.mc_layers([sweep, {**sweep, "por": True}], [[], []])
    produced = {**serve, **mc, **layers.generator_layers([], 0)}
    produced["bench.trace.coverage"] = layers.coverage([span], 1.0)
    for name, unit in run.END_TO_END.items():
        produced[f"bench.trace.overhead.{name}"] = (0.0, unit, "")
    want = {m["name"]: m["unit"] for m in declared()["per_layer"]}
    assert {name: unit for name, (_value, unit, _note) in produced.items()} == want
    assert serve["serve.shard.commits_per_attempt"][0] == 2 / 3
