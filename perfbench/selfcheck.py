"""Self-check of the benchmark itself; it asserts no timings.

    python3 perfbench/run.py --self-check

Checks the BENCHMARK.json schema, the self-time arithmetic on a synthetic
span tree, that the wrappers restore every patched attribute, that the stub
answers identical prompts identically over one kept-alive connection, the
output schema and metric names of a quick run of every workload with and
without tracing, and that the benchmark refuses to run without the program
sources.
"""

from __future__ import annotations

import http.client
import inspect
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import stub
from layers import TARGETS, Aggregate, tail_percentile
from tracing import Span, Tracer, install, self_times
from workloads import FAMILY_ARGS, HERE, WORKLOADS, StubProcess, build_stub_table, call_cli

ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_spec() -> None:
    spec = json.loads(SPEC.read_text())
    require(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
            f"BENCHMARK.json keys: {sorted(spec)}")
    require(spec["command"][:2] == ["python3", "perfbench/run.py"], "command")
    require(spec["paths"] == ["perfbench"], "paths")
    require(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    require(tuple(w["name"] for w in spec["workloads"]) == tuple(WORKLOADS), "workload names")
    for w in spec["workloads"]:
        require(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
                f"workload {w['name']}")
    names = []
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in spec[section]:
            require(set(m) == keys, f"{section} {m}")
            require(bool(NAME.match(m["name"])) and bool(UNIT.match(m["unit"])), f"name/unit {m}")
            require(m["better"] in ("higher", "lower"), f"better {m}")
            if "bound" in m:
                require(0 < m["bound"] <= 0.25, f"bound {m}")
            names.append(m["name"])
    require(len(names) == len(set(names)), "metric names repeat")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    require(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower", "setup_s")
    require(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s has the largest bound")


def _close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-9


def check_self_time() -> None:
    # root [0,10] has children a [1,4] and b [3,6] (overlapping, as from two
    # threads) and d [9,12] (clipped at the root's end); c [2,3] is a's child
    spans = [
        Span("root", None, "p", start=0.0, end=10.0),
        Span("a", 0, "p", start=1.0, end=4.0),
        Span("b", 0, "p", start=3.0, end=6.0),
        Span("c", 1, "p", start=2.0, end=3.0),
        Span("d", 0, "p", start=9.0, end=12.0),
    ]
    got = self_times(spans)
    require(all(_close(x, y) for x, y in zip(got, [4.0, 2.0, 3.0, 1.0, 3.0])), f"self times {got}")

    tree = [
        Span("cli.run", None, None, start=0.0, end=10.0),
        Span("orchestrator.run_batch", 0, None, start=1.0, end=6.0),
        Span("generators.load_entry", 0, None, start=6.0, end=7.0),
        Span("report.score", 0, None, start=7.0, end=9.0),
        Span("semantics.validate_plan", 3, None, start=7.5, end=8.0, counts={"steps": 6}),
        Span("semantics.validate_plan", 1, None, start=2.0, end=3.0, counts={"steps": 4}),
    ]
    agg = Aggregate()
    agg.add(tree)
    require(_close(agg.cli_run_self, 3.0), f"cli.run.self_s {agg.cli_run_self}")
    require(_close(agg.self_seconds["cli.run"], 2.0), "generic self time of cli.run")
    require(agg.validate_under_score == 1, "validations under score")
    require(agg.counts["semantics.validate_plan.steps"] == 10, "summed counts")
    require([tail_percentile(n) for n in (5, 40, 100, 1000, 20000)] == [50.0, 75.0, 90.0, 99.0, 99.9],
            "tail percentile choice")


def _package_attributes() -> dict:
    """Every attribute of every program module and class, by identity."""
    import plancritic  # noqa: F401  (loads the package modules)

    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name != "plancritic" and not name.startswith("plancritic."):
            continue
        for attr, value in vars(module).items():
            snapshot[(name, attr)] = id(value)
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    snapshot[(name, attr, cattr)] = id(cvalue)
    return snapshot


def check_wrappers_restore() -> None:
    from plancritic import critics, orchestrator, semantics
    from plancritic.domains import blocksworld_domain

    before = _package_attributes()
    original = semantics.validate_plan
    tracer = Tracer()
    patches = install(tracer, TARGETS)
    try:
        require(not patches.missing, f"targets not found: {patches.missing}")
        require(semantics.validate_plan is not original, "validate_plan not wrapped")
        require(critics.validate_plan is semantics.validate_plan, "import alias not wrapped")
        require(orchestrator.validate_plan is semantics.validate_plan, "import alias not wrapped")
        require(_package_attributes() != before, "nothing was patched")
        domain = blocksworld_domain()
        problem = _tiny_problem(domain)
        semantics.format_trace(semantics.validate_plan(problem, orchestrator.Plan(()), domain))
        require(not tracer.spans, "spans recorded outside recording()")
        with tracer.recording():
            critics.format_trace(critics.validate_plan(problem, orchestrator.Plan(()), domain))
        require([s.name for s in tracer.spans] == ["semantics.validate_plan", "semantics.format_trace"],
                f"spans {[s.name for s in tracer.spans]}")
    finally:
        patches.restore()
    require(patches.restored(), "patches.restored() is false")
    require(_package_attributes() == before, "attributes differ after restore")


def _tiny_problem(domain):
    from plancritic.pddl import parse_problem

    return parse_problem(
        "(define (problem t) (:domain blocksworld-4ops) (:objects a b)"
        " (:init (clear a) (clear b) (ontable a) (ontable b) (handempty))"
        " (:goal (and (on a b))))",
        domain,
    )


def _post(conn: http.client.HTTPConnection, prompt: str) -> tuple[int, str]:
    body = json.dumps({"model": "stub", "messages": [{"role": "user", "content": prompt}]})
    conn.request("POST", "/v1/chat/completions", body, {"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read().decode()


def check_stub(work: Path) -> None:
    from plancritic.generators import load_entry, load_manifest
    from plancritic.pddl import Plan
    from plancritic.prompting import TemplateId, build_critique_prompt, build_plan_prompt

    out = work / "stub-ds"
    code, _ = call_cli(["generate", *FAMILY_ARGS["blocksworld"], "--seed", 3, "--count", 4,
                        "--out", out, "--solve"])
    require(code == 0, "generate for the stub check failed")
    manifest = out / "manifest.jsonl"
    (work / "table.json").write_text(json.dumps(build_stub_table(manifest, 3)))
    domain, problem, golden = load_entry(load_manifest(manifest)[0])
    plan_prompt = build_plan_prompt(domain, problem)
    critique_prompt = build_critique_prompt(TemplateId.CRITIQUE_0SHOT_DD, domain, problem,
                                            Plan(golden.steps[:-1]))
    server = StubProcess(work / "table.json", 0)
    try:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        answers = [_post(conn, p) for p in (plan_prompt, plan_prompt, critique_prompt, critique_prompt)]
        missing = _post(conn, "no problem here")
        conn.close()
        stats = server.stats()
    finally:
        server.close()
    require(server.proc.returncode == 0, f"stub exit code {server.proc.returncode}")
    require(all(status == 200 for status, _ in answers), f"statuses {[s for s, _ in answers]}")
    require(answers[0] == answers[1] and answers[2] == answers[3], "identical prompts, different answers")
    plan_text = json.loads(answers[0][1])["choices"][0]["message"]["content"]
    require(plan_text.startswith("1. (") or plan_text == "", f"plan answer {plan_text!r}")
    critique = json.loads(answers[2][1])["choices"][0]["message"]["content"]
    require(re.search(r"Assessment: (the plan is correct|the plan is wrong|goal not reached)$", critique)
            is not None, f"critique answer {critique!r}")
    require(missing[0] == 404, "a prompt outside the table was answered")
    require(stats["requests"] == 5 and stats["connections"] == 1 and stats["inflight_max"] == 1,
            f"stub counters {stats}")
    require(stub.problem_text("x (define (problem p) (a (b))) y") == "(define (problem p) (a (b)))",
            "problem block extraction")


def _run_benchmark(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_outputs() -> None:
    spec = json.loads(SPEC.read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    layer_in_use = {
        "solve": "search.bfs_plan.calls",
        "refine-mock": "semantics.format_trace.calls",
        "refine-stub": "llm.complete.calls",
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            proc = _run_benchmark(["--workload", workload, "--quick", "--seconds", "1",
                                   "--trace", str(trace)], ROOT)
            require(proc.returncode == 0, f"{what}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys")
            require(result["correct"] is True and result["failed"] == 0, f"{what}: not correct")
            require(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{what}: attempted")
            metrics = result["metrics"]
            require(set(metrics) == set(declared[trace]), f"{what}: metric names differ from BENCHMARK.json")
            for name, entry in metrics.items():
                value = entry["value"]
                require(set(entry) == {"value", "unit"} and entry["unit"] == declared[trace][name],
                        f"{what}: {name} unit")
                require(isinstance(value, (int, float)) and not isinstance(value, bool)
                        and math.isfinite(value), f"{what}: {name} value {value!r}")
            if trace:
                require(metrics[layer_in_use[workload]]["value"] > 0, f"{what}: layer not traced")
                require(metrics["llm.stub.inflight_max"]["value"] <= 2, f"{what}: in flight")
            else:
                require(all(m["value"] > 0 for m in metrics.values()), f"{what}: a zero end-to-end metric")


def check_refuses_without_sources(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(SPEC, bare / "BENCHMARK.json")
    proc = _run_benchmark(["--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    require(proc.returncode != 0, "ran without the program sources")
    require(not any(line.startswith("{") for line in proc.stdout.splitlines()), "printed a result")


def main() -> int:
    work = WORK / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks = [
        ("BENCHMARK.json schema", check_spec),
        ("self-time arithmetic", check_self_time),
        ("wrappers restore attributes", check_wrappers_restore),
        ("stub determinism", lambda: check_stub(work)),
        ("output schema and metric names", check_outputs),
        ("refuses to run without sources", lambda: check_refuses_without_sources(work)),
    ]
    failed = 0
    try:
        for name, check in checks:
            try:
                check()
                print(f"ok    {name}")
            except CheckFailed as exc:
                failed += 1
                print(f"FAIL  {name}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print("self-check: " + ("ok" if not failed else f"{failed} failed"))
    return 0 if not failed else 1
