"""Which program functions the traced run wraps, and the per-layer metrics
derived from their spans.

Only layer-boundary functions are wrapped, not every helper: wrapping the
per-step helpers of the validator or the BFS inner loop would cost more than
the work they do and distort the self times.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import Span, Target, self_times

FAMILIES = ("blocksworld", "logistics", "minigrid")
STOP_REASONS = ("critic-accepted", "budget-exceeded", "iterations-exhausted", "transport-failure")


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _family(args, kwargs):
    domain = _arg(args, kwargs, 0, "domain")
    name = getattr(domain, "name", "")
    return next((f for f in FAMILIES if f in name), "other")


def _cli_name(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv") or ["?"]
    return "cli." + argv[0]


def _run_problem_pid(args, kwargs):
    pid = kwargs.get("problem_id")
    if pid is None:
        problem = _arg(args, kwargs, 1, "problem")
        pid = getattr(problem, "name", None)
    return pid


def _record_counts(args, kwargs, record):
    stop = getattr(record.stop_reason, "value", str(record.stop_reason))
    return {"rounds": len(record.iterations), "stop." + stop: 1}


P = "plancritic."
TARGETS = [
    Target(P + "cli:main", _cli_name),
    Target(P + "generators:generate", "generators.generate"),
    Target(P + "generators:write_dataset", "generators.write_dataset"),
    Target(P + "generators:load_entry", "generators.load_entry"),
    Target(P + "generators:load_manifest", "generators.load_manifest"),
    Target(P + "pddl:parse_domain", "pddl.parse_domain"),
    Target(P + "pddl:parse_problem", "pddl.parse_problem"),
    Target(P + "pddl:parse_plan", "pddl.parse_plan"),
    Target(P + "pddl:print_domain", "pddl.print_domain"),
    Target(P + "pddl:print_problem", "pddl.print_problem"),
    Target(P + "pddl:print_plan", "pddl.print_plan"),
    Target(
        P + "search:bfs_plan",
        "search.bfs_plan",
        tag=_family,
        pid=lambda a, k: getattr(_arg(a, k, 1, "problem"), "name", None),
        counts=lambda a, k, r: {"expanded": r.expanded},
    ),
    # grounding proper (operator construction and static filter); private, so
    # it is skipped when a rewrite removes it
    Target(P + "search:_reachable_ops", "search.ground", tag=_family),
    Target(
        P + "search:ground_actions",
        "search.ground_actions",
        counts=lambda a, k, r: {"candidates": len(r)},
    ),
    Target(
        P + "semantics:validate_plan",
        "semantics.validate_plan",
        counts=lambda a, k, r: {"steps": len(r.trace)},
    ),
    Target(
        P + "semantics:format_trace",
        "semantics.format_trace",
        counts=lambda a, k, r: {"chars": len(r)},
    ),
    Target(
        P + "prompting:build_plan_prompt",
        "prompting.build_plan_prompt",
        counts=lambda a, k, r: {"chars": len(r)},
    ),
    Target(P + "prompting:build_critique_prompt", "prompting.build_critique_prompt"),
    Target(P + "prompting:load_template", "prompting.load_template"),
    Target(P + "prompting:Transcript.render", "prompting.transcript_render"),
    Target(P + "prompting:select_fewshots", "prompting.select_fewshots"),
    *[
        Target(
            P + f"critics:{cls}.critique",
            "critics.critique",
            counts=lambda a, k, r: {"votes": r.sample_count},
        )
        for cls in ("OracleCritic", "MockCritic", "LlmCritic")
    ],
    Target(P + "critics:extract_verdict", "critics.extract_verdict"),
    Target(P + "orchestrator:run_batch", "orchestrator.run_batch"),
    Target(
        P + "orchestrator:run_problem",
        "orchestrator.run_problem",
        pid=_run_problem_pid,
        counts=_record_counts,
    ),
    Target(P + "orchestrator:extract_plan", "orchestrator.extract_plan"),
    *[
        Target(P + f"orchestrator:{cls}.generate", "orchestrator.planner_generate")
        for cls in ("MockPlanner", "LlmPlanner", "ScriptedPlanner")
    ],
    Target(
        P + "report:score",
        "report.score",
        counts=lambda a, k, r: {"records": len(_arg(a, k, 0, "records"))},
    ),
    Target(P + "llm:ChatClient.complete", "llm.complete"),
]


class Aggregate:
    """Sums over the spans of one or more traces."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.tagged: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.validate_under_score = 0
        self.cli_run_self = 0.0

    def add(self, spans: list[Span]) -> None:
        selfs = self_times(spans)
        under_score = [False] * len(spans)
        direct_child_s: dict[int, float] = defaultdict(float)
        for i, span in enumerate(spans):
            name = span.name
            self.calls[name] += 1
            self.seconds[name] += span.duration
            self.self_seconds[name] += selfs[i]
            self.samples[name].append(span.duration)
            if span.tag is not None:
                self.tagged[f"{name}.{span.tag}"] += span.duration
            for key, value in (span.counts or {}).items():
                self.counts[f"{name}.{key}"] += value
            parent = span.parent
            # parents are recorded before their children, so this is one pass
            under_score[i] = parent is not None and (
                under_score[parent] or spans[parent].name == "report.score"
            )
            if name == "semantics.validate_plan" and under_score[i]:
                self.validate_under_score += 1
            if parent is not None and spans[parent].name == "cli.run" and name in (
                "orchestrator.run_batch",
                "report.score",
            ):
                direct_child_s[parent] += span.duration
        for i, span in enumerate(spans):
            if span.name == "cli.run":
                self.cli_run_self += span.duration - direct_child_s[i]


def _pct(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail_percentile(n: int) -> float:
    """The highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(setup: Aggregate, passes: Aggregate, n_passes: int, stub: dict) -> dict[str, float]:
    """Per-layer numbers: the traced set-up plus the mean traced pass.

    ``stub`` holds the endpoint stub's counters for the mean traced pass
    (``requests``, ``connections``, ``service_s``) and ``inflight_max`` over
    the whole run.
    """
    n = max(n_passes, 1)

    def calls(name):
        return setup.calls[name] + passes.calls[name] / n

    def sec(name):
        return setup.seconds[name] + passes.seconds[name] / n

    def self_sec(name):
        return setup.self_seconds[name] + passes.self_seconds[name] / n

    def count(key):
        return setup.counts[key] + passes.counts[key] / n

    def tagged(key):
        return setup.tagged[key] + passes.tagged[key] / n

    def samples(name):
        return setup.samples[name] + passes.samples[name]

    m: dict[str, float] = {}
    for sub in ("generate", "run", "score"):
        m[f"cli.{sub}.s"] = sec(f"cli.{sub}")
    m["cli.run.self_s"] = setup.cli_run_self + passes.cli_run_self / n

    m["generators.generate.s"] = sec("generators.generate")
    m["generators.write_dataset.s"] = sec("generators.write_dataset")
    m["generators.load_entry.calls"] = calls("generators.load_entry")
    m["generators.load_entry.s"] = sec("generators.load_entry")
    m["generators.load_manifest.calls"] = calls("generators.load_manifest")

    for fn in ("parse_domain", "parse_plan", "print_domain"):
        m[f"pddl.{fn}.calls"] = calls(f"pddl.{fn}")
    for fn in ("parse_domain", "parse_problem", "parse_plan", "print_domain", "print_problem", "print_plan"):
        m[f"pddl.{fn}.s"] = sec(f"pddl.{fn}")

    m["search.bfs_plan.calls"] = calls("search.bfs_plan")
    m["search.bfs_plan.s"] = sec("search.bfs_plan")
    m["search.bfs_plan.self_s"] = self_sec("search.bfs_plan")
    m["search.ground.s"] = sec("search.ground")
    m["search.ground_actions.s"] = sec("search.ground_actions")
    m["search.ground_actions.candidates"] = count("search.ground_actions.candidates")
    m["search.expanded"] = count("search.bfs_plan.expanded")
    m["search.expansions_per_s"] = _div(m["search.expanded"], m["search.bfs_plan.self_s"])
    for family in FAMILIES:
        m[f"search.bfs_plan.{family}.s"] = tagged(f"search.bfs_plan.{family}")
        m[f"search.ground.{family}.s"] = tagged(f"search.ground.{family}")

    m["semantics.validate_plan.calls"] = calls("semantics.validate_plan")
    m["semantics.validate_plan.s"] = sec("semantics.validate_plan")
    m["semantics.validate_plan.steps"] = count("semantics.validate_plan.steps")
    m["semantics.us_per_step"] = 1e6 * _div(m["semantics.validate_plan.s"], m["semantics.validate_plan.steps"])
    m["semantics.format_trace.calls"] = calls("semantics.format_trace")
    m["semantics.format_trace.s"] = sec("semantics.format_trace")
    m["semantics.format_trace.chars"] = count("semantics.format_trace.chars")

    m["prompting.build_plan_prompt.calls"] = calls("prompting.build_plan_prompt")
    m["prompting.build_plan_prompt.s"] = sec("prompting.build_plan_prompt")
    m["prompting.build_plan_prompt.chars"] = count("prompting.build_plan_prompt.chars")
    m["prompting.load_template.calls"] = calls("prompting.load_template")
    m["prompting.load_template.s"] = sec("prompting.load_template")
    m["prompting.transcript_render.s"] = sec("prompting.transcript_render")
    m["prompting.select_fewshots.s"] = sec("prompting.select_fewshots")
    m["prompting.build_critique_prompt.calls"] = calls("prompting.build_critique_prompt")
    m["prompting.build_critique_prompt.s"] = sec("prompting.build_critique_prompt")

    m["critics.critique.calls"] = calls("critics.critique")
    m["critics.critique.s"] = sec("critics.critique")
    m["critics.votes"] = count("critics.critique.votes")
    m["critics.extract_verdict.s"] = sec("critics.extract_verdict")

    m["orchestrator.run_batch.s"] = sec("orchestrator.run_batch")
    m["orchestrator.run_problem.calls"] = calls("orchestrator.run_problem")
    m["orchestrator.run_problem.s"] = sec("orchestrator.run_problem")
    m["orchestrator.run_problem.self_s"] = self_sec("orchestrator.run_problem")
    latencies = samples("orchestrator.run_problem")
    tail = tail_percentile(len(latencies))
    m["orchestrator.problem_latency.n"] = len(latencies)
    m["orchestrator.problem_latency.p50_ms"] = 1e3 * _pct(latencies, 50)
    m["orchestrator.problem_latency.tail_pct"] = tail if latencies else 0.0
    m["orchestrator.problem_latency.tail_ms"] = 1e3 * _pct(latencies, tail)
    rounds = count("orchestrator.run_problem.rounds")
    m["orchestrator.rounds"] = rounds
    m["orchestrator.ms_per_round"] = 1e3 * _div(m["orchestrator.run_problem.s"], rounds)
    m["orchestrator.accepted_per_round"] = _div(count("orchestrator.run_problem.stop.critic-accepted"), rounds)
    m["orchestrator.planner_generate.s"] = sec("orchestrator.planner_generate")
    m["orchestrator.extract_plan.s"] = sec("orchestrator.extract_plan")
    for reason in STOP_REASONS:
        m[f"orchestrator.stop.{reason}"] = count(f"orchestrator.run_problem.stop.{reason}")

    m["report.score.s"] = sec("report.score")
    m["report.score.records"] = count("report.score.records")
    m["report.us_per_record"] = 1e6 * _div(m["report.score.s"], m["report.score.records"])
    m["report.validate.calls"] = setup.validate_under_score + passes.validate_under_score / n

    complete = samples("llm.complete")
    m["llm.complete.calls"] = calls("llm.complete")
    m["llm.complete.s"] = sec("llm.complete")
    m["llm.complete.p50_ms"] = 1e3 * _pct(complete, 50)
    m["llm.complete.p99_ms"] = 1e3 * _pct(complete, 99)
    m["llm.client_overhead_ms"] = 1e3 * _div(m["llm.complete.s"] - stub["service_s"], m["llm.complete.calls"])
    m["llm.stub.requests"] = stub["requests"]
    m["llm.stub.connections"] = stub["connections"]
    m["llm.requests_per_connection"] = _div(stub["requests"], stub["connections"])
    m["llm.stub.inflight_max"] = stub["inflight_max"]
    m["llm.retries"] = stub["requests"] - m["llm.complete.calls"]
    return m
