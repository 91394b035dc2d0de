"""The iterative refinement loop and the batch runner.

One problem run alternates plan generation and critique for up to ``k + 1``
rounds (round 0 is the baseline attempt).  A round whose critique says the
plan is correct stops the loop; otherwise the plan and its critique are
appended to the transcript and the next prompt asks for a fix.  The loop
also stops when the prompt outgrows its character budget, when the endpoint
fails, or on any other exception; whatever stops it, the latest plan
proposed stands.  ``run_problem`` is the one place where a run ends: each
run, failed or not, yields a serializable record of the rounds that ran,
the stop reason, and the exact number of backend calls: ``rounds`` planner
calls plus ``rounds × self_consistency`` critic calls.

Batches execute problems independently (optionally in parallel), persist
records as they finish, and can resume from a partially written record file.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import random
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from .critics import Critic, CriticConfig, CritiqueLabel, make_critic
from .generators import Dataset, ManifestEntry
from .llm import ChatClient, EndpointConfig, MalformedResponse, TransportError, split_base_url
from .pddl import DomainDef, PddlError, Plan, ProblemDef, parse_plan, print_plan
from .prompting import (
    BudgetExceeded,
    FewShotPool,
    PoolTooSmall,
    Transcript,
    build_plan_prompt,
    select_fewshots,
)
from .semantics import validate_plan, verdict_to_dict

log = logging.getLogger(__name__)


class StopReason(str, Enum):
    CRITIC_ACCEPTED = "critic-accepted"
    BUDGET_EXCEEDED = "budget-exceeded"
    ITERATIONS_EXHAUSTED = "iterations-exhausted"
    TRANSPORT_FAILURE = "transport-failure"
    INTERNAL_ERROR = "internal-error"


def call_count(rounds: int, self_consistency: int = 1) -> int:
    """Backend calls for ``rounds`` executed (plan, critique) rounds."""
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    if self_consistency < 1:
        raise ValueError("self_consistency must be at least 1")
    return rounds + self_consistency * rounds


# ---------------------------------------------------------------------------
# Planner backends


class PlannerBackend(str, Enum):
    LLM = "llm"
    MOCK = "mock"


@dataclass(frozen=True)
class PlannerConfig(EndpointConfig):
    backend: PlannerBackend = PlannerBackend.MOCK
    # llm backend (endpoint fields come from EndpointConfig)
    temperature: float = 0.0
    max_output_tokens: int = 2048
    # mock backend
    golden_prob: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "backend", PlannerBackend(self.backend))
        if not 0.0 <= self.golden_prob <= 1.0:
            raise ValueError("golden_prob must be a probability")
        if self.backend is PlannerBackend.LLM:
            split_base_url(self.base_url)


class Planner:
    def generate(self, prompt: str, *, problem_id: str, iteration: int) -> str:
        raise NotImplementedError


class LlmPlanner(Planner):
    def __init__(self, config: PlannerConfig, client: ChatClient | None = None):
        self.config = config
        self.client = client or ChatClient(config.endpoint)

    def generate(self, prompt, *, problem_id, iteration):
        return self.client.complete(prompt, self.config.temperature, self.config.max_output_tokens)


class MockPlanner(Planner):
    """Emits the problem's golden plan with probability ``golden_prob`` per
    attempt, otherwise the golden plan with its last step dropped (which can
    never reach the goal when the golden plan is shortest).  Draws are seeded
    by (seed, problem id, iteration)."""

    def __init__(self, goldens: Mapping[str, str], golden_prob: float = 1.0, seed: int = 0):
        self.goldens = dict(goldens)
        self.golden_prob = golden_prob
        self.seed = seed

    def generate(self, prompt, *, problem_id, iteration):
        if problem_id not in self.goldens:
            raise KeyError(f"no golden plan for {problem_id!r}")
        golden = self.goldens[problem_id]
        if self.golden_prob < 1.0:
            rng = random.Random(f"{self.seed}:{problem_id}:{iteration}")
            if rng.random() >= self.golden_prob:
                return "\n".join(golden.splitlines()[:-1])
        return golden


class ScriptedPlanner(Planner):
    """Replays fixed plan texts, one per iteration; the last repeats."""

    def __init__(self, scripts: Mapping[str, Sequence[str]]):
        self.scripts = {k: list(v) for k, v in scripts.items()}

    def generate(self, prompt, *, problem_id, iteration):
        script = self.scripts[problem_id]
        return script[min(iteration, len(script) - 1)]


def make_planner(
    config: PlannerConfig,
    goldens: Mapping[str, str] | None = None,
    client: ChatClient | None = None,
) -> Planner:
    if config.backend is PlannerBackend.LLM:
        return LlmPlanner(config, client)
    return MockPlanner(goldens or {}, config.golden_prob, config.seed)


# ---------------------------------------------------------------------------
# Loop configuration and records


@dataclass(frozen=True)
class LoopConfig:
    k: int = 10  # critique-and-retry budget after the baseline attempt
    shots: int = 16
    transcript_budget: int | None = 400_000  # characters; None disables the cap
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    critic: CriticConfig = field(default_factory=CriticConfig)

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if self.shots < 0:
            raise ValueError("shots must be non-negative")


@dataclass(frozen=True)
class IterationEntry:
    step: int
    plan: str
    critic_label: str
    votes: dict[str, int]
    plan_prompt_chars: int
    critique_prompt_chars: int


@dataclass(frozen=True)
class RunRecord:
    problem_id: str
    max_steps: int
    self_consistency: int
    iterations: tuple[IterationEntry, ...]
    final_plan: str
    stop_reason: StopReason
    llm_calls: int
    ground_truth: dict | None
    error: str | None = None


_NUMBERING = re.compile(r"^(\d+[.)]\s*|[-*]\s+)")


def extract_plan(text: str, domain: DomainDef) -> Plan:
    """Pull a plan out of raw model output.

    Keeps, in order, every line that parses as a ground action of the domain
    (after stripping list numbering, bullets and a ``;`` comment); all other
    lines are ignored.  Output that contains no action at all yields the
    empty plan.
    """
    steps = []
    for raw_line in text.splitlines():
        line = _NUMBERING.sub("", raw_line.split(";", 1)[0].strip())
        if not (line.startswith("(") and line.endswith(")")):
            continue
        try:
            parsed = parse_plan(line, domain)
        except PddlError:
            continue
        steps.extend(parsed.steps)
    return Plan(tuple(steps))


def run_problem(
    domain: DomainDef,
    problem: ProblemDef,
    config: LoopConfig,
    planner: Planner,
    critic: Critic,
    shots: Sequence = (),
    problem_id: str | None = None,
) -> RunRecord:
    """Run the full refinement loop for one problem.

    Every run ends here, in a record: a failure of the planner, the critic or
    the loop itself becomes the record's stop reason and ``error``, and the
    record keeps the rounds that ran and the latest plan proposed.
    """
    pid = problem_id or problem.name
    transcript = Transcript(char_budget=config.transcript_budget)
    iterations: list[IterationEntry] = []
    plan = Plan(())  # the latest plan proposed; it stands whatever stops the run
    stop = StopReason.ITERATIONS_EXHAUSTED
    error: str | None = None
    c = config.critic.self_consistency

    try:
        for step in range(config.k + 1):
            role = "planner"  # the role whose call a transport error comes from
            plan_prompt = build_plan_prompt(domain, problem, shots, transcript)
            raw = planner.generate(plan_prompt, problem_id=pid, iteration=step)
            plan = extract_plan(raw, domain)
            plan_text = print_plan(plan)
            role = "critic"
            verdict = critic.critique(domain, problem, plan, problem_id=pid, iteration=step)
            iterations.append(
                IterationEntry(
                    step=step,
                    plan=plan_text,
                    critic_label=verdict.label.value,
                    votes={label.value: n for label, n in verdict.votes.items()},
                    plan_prompt_chars=len(plan_prompt),
                    critique_prompt_chars=verdict.prompt_chars,
                )
            )
            if verdict.label is CritiqueLabel.CORRECT:
                stop = StopReason.CRITIC_ACCEPTED
                break
            transcript.append(plan_text, verdict.text)
    except BudgetExceeded as exc:
        stop, error = StopReason.BUDGET_EXCEEDED, str(exc)
    except (TransportError, MalformedResponse) as exc:
        stop, error = StopReason.TRANSPORT_FAILURE, f"{role}: {exc}"
    except Exception as exc:  # isolate the problem, keep the batch alive
        log.exception("run failed for %s", pid)
        stop, error = StopReason.INTERNAL_ERROR, f"{type(exc).__name__}: {exc}"

    truth = validate_plan(problem, plan, domain)
    return RunRecord(
        problem_id=pid,
        max_steps=config.k,
        self_consistency=c,
        iterations=tuple(iterations),
        final_plan=print_plan(plan),
        stop_reason=stop,
        llm_calls=call_count(len(iterations), c),
        ground_truth=verdict_to_dict(truth.verdict),
        error=error,
    )


# ---------------------------------------------------------------------------
# Record persistence


def _fields_of(cls, data: dict) -> dict:
    return {f.name: data[f.name] for f in dataclasses.fields(cls) if f.name in data}


def record_to_dict(record: RunRecord) -> dict:
    return dataclasses.asdict(record)  # StopReason is a str, so it serializes as its value


def record_from_dict(data: dict) -> RunRecord:
    values = _fields_of(RunRecord, data)
    values["iterations"] = tuple(
        IterationEntry(**_fields_of(IterationEntry, e)) for e in data["iterations"]
    )
    values["stop_reason"] = StopReason(data["stop_reason"])
    return RunRecord(**values)


def _record_line(record: RunRecord) -> str:
    return json.dumps(record_to_dict(record), sort_keys=True) + "\n"


def _parse_records(text: str) -> list[RunRecord]:
    return [record_from_dict(json.loads(line)) for line in text.splitlines() if line.strip()]


def read_records(path: str | Path) -> list[RunRecord]:
    return _parse_records(Path(path).read_text())


def _resume_records(path: Path) -> list[RunRecord]:
    """The stored records of an interrupted batch.

    Every record is written as one whole line, so a last line without its
    newline was torn by a crash mid-write: it is dropped and cut from the
    file, so that new records append after the last whole one.
    """
    data = path.read_bytes()
    whole = data.rfind(b"\n") + 1
    if whole < len(data):
        log.warning("%s: dropping a torn last record line (%d bytes)", path, len(data) - whole)
        with path.open("r+b") as fh:
            fh.truncate(whole)
    return _parse_records(data[:whole].decode())


def write_records(path: str | Path, records: Sequence[RunRecord]) -> None:
    with Path(path).open("w") as fh:
        fh.writelines(_record_line(record) for record in records)


# ---------------------------------------------------------------------------
# Batch runner


def make_backends(
    config: LoopConfig, goldens: Mapping[str, str] | None = None
) -> tuple[Planner, Critic]:
    """The planner and critic of a run.  With equal endpoint settings they
    share one client, so one rate limit and one debug-log lock cover both
    roles; backends that call no endpoint ignore the client."""
    endpoint = config.planner.endpoint
    client = ChatClient(endpoint) if endpoint == config.critic.endpoint else None
    return make_planner(config.planner, goldens, client), make_critic(config.critic, client)


def run_batch(
    dataset: Dataset,
    config: LoopConfig,
    *,
    parallelism: int = 1,
    records_path: str | Path | None = None,
    pool: FewShotPool | None = None,
) -> list[RunRecord]:
    """Run every entry of the dataset, returning records in manifest order.

    If ``records_path`` exists, problems with a record there are skipped and
    their stored records reused; new records are appended as runs finish.  A
    torn last line, left by a crash mid-write, is dropped with a warning.
    Failures are isolated: ``run_problem`` turns a problem's failure into its
    record, which is stored like any other, and the batch continues.
    """
    if config.shots > 0:
        if pool is None:
            raise ValueError("shots > 0 needs a few-shot pool")
        # a target in the pool is never shown its own exemplar
        available = len(pool) - any(pid in dataset.problems for pid in pool.ids)
        if config.shots > available:
            raise PoolTooSmall(f"asked for {config.shots} shots, pool has {available}")

    existing: dict[str, RunRecord] = {}
    if records_path is not None and Path(records_path).exists():
        existing = {r.problem_id: r for r in _resume_records(Path(records_path))}

    write_lock = threading.Lock()

    def work(entry: ManifestEntry) -> RunRecord:
        shots = select_fewshots(pool, entry.id, config.shots) if config.shots else ()
        record = run_problem(
            dataset.domain,
            dataset.problems[entry.id],
            config,
            planner,
            critic,
            shots=shots,
            problem_id=entry.id,
        )
        if records_path is not None:
            with write_lock:
                with Path(records_path).open("a") as fh:
                    fh.write(_record_line(record))
        return record

    entries = dataset.entries
    todo = [e for e in entries if e.id not in existing]
    goldens = {pid: print_plan(plan) for pid, plan in dataset.plans.items()}
    planner, critic = make_backends(config, goldens)
    try:
        if parallelism > 1 and len(todo) > 1:
            with ThreadPoolExecutor(max_workers=parallelism) as executor:
                records = list(executor.map(work, todo))
        else:  # on this thread, so Ctrl-C stops the batch at once
            records = [work(entry) for entry in todo]
    finally:
        critic.close()
    results = {record.problem_id: record for record in records}
    return [existing.get(e.id) or results[e.id] for e in entries]
