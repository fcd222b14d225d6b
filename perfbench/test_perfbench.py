"""The benchmark's own tests: `python3 -m pytest -q perfbench` from the repo root."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_writes_same_bytes(name, tmp_path):
    _, first = workloads.generate(name, 7, tmp_path / "a")
    _, again = workloads.generate(name, 7, tmp_path / "b")
    _, other = workloads.generate(name, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert first == again
    assert workloads.input_set_digest(first) != workloads.input_set_digest(other)


def _small_ops(tmp_path: Path):
    ops, _ = workloads.generate("cli-small", 3, tmp_path)
    return ops[: workloads.WORKLOADS["cli-small"].round_ops]


def _wrapped_names(modules):
    names = [(modules[m], attr) for m, attr, _ in tracer.SPANNED]
    names += [(getattr(modules[m], cls), attr) for m, cls, attr, _ in tracer.COUNTED]
    names.append((argparse.ArgumentParser, "parse_args"))
    return names


def test_traced_run_restores_every_wrapped_name(tmp_path):
    modules = run.layer_modules()
    names = _wrapped_names(modules)
    before = [getattr(owner, attr) for owner, attr in names]
    *_, spans, counts, failures = run.traced_ops_run(_small_ops(tmp_path), modules)
    assert failures == []
    assert spans.spans and counts["fields.check_calls"] > 0
    assert all(getattr(owner, attr) is orig for (owner, attr), orig in zip(names, before))


def test_install_restores_on_error():
    modules = run.layer_modules()
    names = _wrapped_names(modules)
    before = [getattr(owner, attr) for owner, attr in names]
    with pytest.raises(RuntimeError):
        with tracer.Tracer() as t:
            t.install_spans(modules)
            t.install_counters(modules)
            raise RuntimeError("boom")
    assert all(getattr(owner, attr) is orig for (owner, attr), orig in zip(names, before))


def test_exact_counts_repeat(tmp_path):
    modules = run.layer_modules()
    results = []
    for attempt in ("a", "b"):
        *_, spans, counts, _ = run.traced_ops_run(_small_ops(tmp_path / attempt), modules)
        calls = {name: s["calls"] for name, s in tracer.summarize(spans.spans, "op").items()}
        results.append((counts, calls))
    assert results[0] == results[1]
    counts, calls = results[0]
    assert counts["classification.pivot_steps"] > 0 and counts["classification.leaves"] > 0
    assert calls["module_space.solve_linear"] > 0 and calls["classification.passport"] > 0


def test_summarize_self_time():
    spans = [
        [0, 0, "op", None, 0.0, 10.0],
        [1, 0, "cli.load", 0, 1.0, 4.0],
        [2, 0, "module_file.parse", 1, 2.0, 3.5],
        [3, None, "check", None, 11.0, 12.0],
    ]
    stat = tracer.summarize(spans, "op")
    assert stat["op"]["self_s"] == pytest.approx(7.0)
    assert stat["cli.load"]["self_s"] == pytest.approx(1.5)
    assert stat["module_file.parse"]["total_s"] == pytest.approx(1.5)
    assert "check" not in stat


def test_checks_reject_wrong_answers(tmp_path):
    ops, _ = workloads.generate("cli-small", 3, tmp_path)
    cli = run.layer_modules()["regmod.cli"]
    for op in ops[:6]:
        code, out, err = run.call_in_process(cli, op.argv)
        assert checks.check(op, code, out, err) is None, op.argv
        assert checks.check(op, 2, out, err) is not None
        assert checks.check(op, code, out, err + "Traceback (most recent call last):") is not None
        assert checks.check(op, code, out[: len(out) // 2], err) is not None
        doc = json.loads(out)
        if op.kind == "passport":
            doc["passport"][0]["rank"] += 1
        elif op.kind == "iso":
            doc["map"]["generator_images"][0] = doc["map"]["generator_images"][1]
        elif op.kind == "basis" and code == 0:
            doc["basis"][-1] = doc["basis"][0]
        elif op.kind == "member" and code == 0:
            doc["coefficients"][0], doc["coefficients"][1] = doc["coefficients"][1], doc["coefficients"][0]
        else:
            continue
        assert checks.check(op, code, json.dumps(doc), err) is not None, op.argv


def test_tail_has_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = run.tail([float(i) for i in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)
    assert sum(1 for i in range(1, 101) if i > value) == 10


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(n, u) for n, u, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in run.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
