"""The iterative refinement loop and the batch runner.

One problem run alternates plan generation and critique for up to ``k + 1``
rounds (round 0 is the baseline attempt).  A round whose critique says the
plan is correct stops the loop; otherwise the plan and its critique are
appended to the transcript and the next prompt asks for a fix.  The loop
also stops when the prompt outgrows its character budget, when the endpoint
fails, or on any other exception; whatever stops it, the latest plan
proposed stands.  ``run_problem`` is the one place where a run ends: each
run, failed or not, yields a serializable record of the rounds that ran,
the stop reason, and ``llm_calls``: the backend calls that returned, one
per planner reply plus the votes of each critique that returned.  A failed
call, and every vote of a failed critique, are not counted.  A record has
rounds 0..n-1, n <= k + 1, and only its last can be accepted; readers of
records rely on this shape, and ``report.record_from_dict`` refuses any other.

A planner often proposes a plan again after it was rejected.  So each run
keeps, for the life of its problem, the plans proposed so far by reply text
and by steps: each distinct reply is extracted once, and each distinct plan
is printed and validated once, when it is first proposed.  Every critic is
handed that validation (the oracle and mock critics judge from it, and the
oracle's write-up is kept on it), and the record's ground truth reads it too.

Batches execute problems independently (optionally in parallel), persist
records as they finish, and can resume from a partially written record file.
"""

from __future__ import annotations

import json
import logging
import random
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Annotated, Mapping, Sequence

from .critics import Critic, CriticConfig, make_critic
from .generators import Dataset, ManifestEntry
from .jsonform import AtLeast, Between, check_bounds
from .llm import ChatClient, EndpointConfig, MalformedResponse, TransportError, split_base_url
from .pddl import DomainDef, Plan, ProblemDef, parse_plan, print_plan, read_step
from .prompting import (
    BudgetExceeded,
    FewShotPool,
    Transcript,
    plan_prompt_prefix,
    select_fewshots,
)
from .report import IterationEntry, RunRecord, StopReason, check_ground_truth, parse_records
from .report import record_to_dict
from .semantics import CritiqueLabel, validate_plan, verdict_to_dict

log = logging.getLogger(__name__)


def call_count(rounds: int, self_consistency: int = 1) -> int:
    """Calls of ``rounds`` whole rounds: what ``run_problem`` counts when no call fails."""
    AtLeast(0).check("rounds", rounds)
    AtLeast(1).check("self_consistency", self_consistency)
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
    temperature: Annotated[float, AtLeast(0)] = 0.0
    max_output_tokens: Annotated[int, AtLeast(1)] = 2048
    # mock backend
    golden_prob: Annotated[float, Between(0, 1)] = 1.0
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "backend", PlannerBackend(self.backend))
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
# Loop configuration


@dataclass(frozen=True)
class LoopConfig:
    k: Annotated[int, AtLeast(0)] = 10  # critique-and-retry rounds after the baseline
    shots: Annotated[int, AtLeast(0)] = 0  # exemplars per plan prompt; above 0 needs a pool
    transcript_budget: Annotated[int | None, AtLeast(1)] = 400_000  # characters; None: no cap
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    critic: CriticConfig = field(default_factory=CriticConfig)

    __post_init__ = check_bounds


_NUMBERING = re.compile(r"^(\d+[.)]\s*|[-*]\s+)")


def extract_plan(text: str, domain: DomainDef) -> Plan:
    """Pull a plan out of raw model output: without its ``;`` comment, blanks
    and list numbering or bullet, a line is kept exactly when ``parse_plan``
    accepts it alone.  Output with no such line yields the empty plan."""
    steps = []
    for raw_line in text.splitlines():
        step = read_step(_NUMBERING.sub("", raw_line.split(";", 1)[0].strip()), domain)
        if step is not None:
            steps.append(step)
    return Plan(tuple(steps))


class _Proposal:
    """One distinct plan of a problem, printed and validated when it is made."""

    __slots__ = ("plan", "text", "result")

    def __init__(self, plan: Plan, problem: ProblemDef, domain: DomainDef):
        self.plan = plan
        self.text = print_plan(plan)
        self.result = validate_plan(problem, plan, domain)


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
    record keeps the rounds that ran and the latest plan proposed.  The plan
    prompt's fixed prefix (template, domain, shots, target) is rendered once
    per problem; each round appends only the transcript, so every round's
    prompt equals ``build_plan_prompt(domain, problem, shots, transcript)``.
    Each round's critic is passed the plan's validation as ``result``.  A
    reply or plan seen before in this run is not extracted, printed or
    validated again (see the module docstring).
    """
    pid = problem_id or problem.name
    transcript = Transcript(char_budget=config.transcript_budget)
    iterations: list[IterationEntry] = []
    by_reply: dict[str, _Proposal] = {}
    by_steps: dict[tuple, _Proposal] = {}
    latest: _Proposal | None = None  # the latest plan proposed; it stands whatever stops the run
    stop = StopReason.ITERATIONS_EXHAUSTED
    error: str | None = None
    calls = 0

    try:
        prefix = plan_prompt_prefix(domain, problem, shots)
        for step in range(config.k + 1):
            role = "planner"  # the role whose call a transport error comes from
            plan_prompt = transcript.prompt(prefix)
            raw = planner.generate(plan_prompt, problem_id=pid, iteration=step)
            calls += 1
            proposal = by_reply.get(raw)
            if proposal is None:
                plan = extract_plan(raw, domain)
                proposal = by_steps.get(plan.steps)
                if proposal is None:
                    proposal = by_steps[plan.steps] = _Proposal(plan, problem, domain)
                by_reply[raw] = proposal
            latest = proposal
            role = "critic"
            verdict = critic.critique(
                domain, problem, latest.plan, problem_id=pid, iteration=step, result=latest.result
            )
            calls += verdict.sample_count
            iterations.append(
                IterationEntry(
                    step=step,
                    plan=latest.text,
                    critic_label=verdict.label,
                    votes=verdict.votes,
                    plan_prompt_chars=len(plan_prompt),
                    critique_prompt_chars=verdict.prompt_chars,
                )
            )
            if verdict.label is CritiqueLabel.CORRECT:
                stop = StopReason.CRITIC_ACCEPTED
                break
            transcript.append(latest.text, verdict.text)
    except BudgetExceeded as exc:
        stop, error = StopReason.BUDGET_EXCEEDED, str(exc)
    except (TransportError, MalformedResponse) as exc:
        stop, error = StopReason.TRANSPORT_FAILURE, f"{role}: {exc}"
    except Exception as exc:  # isolate the problem, keep the batch alive
        log.exception("run failed for %s", pid)
        stop, error = StopReason.INTERNAL_ERROR, f"{type(exc).__name__}: {exc}"

    if latest is None:  # nothing was proposed: the empty plan stands
        latest = _Proposal(Plan(()), problem, domain)
    return RunRecord(
        problem_id=pid,
        max_steps=config.k,
        self_consistency=config.critic.self_consistency,
        iterations=tuple(iterations),
        final_plan=latest.text,
        stop_reason=stop,
        llm_calls=calls,
        ground_truth=verdict_to_dict(latest.result.verdict),
        error=error,
    )


# ---------------------------------------------------------------------------
# Record persistence


def _record_line(record: RunRecord) -> str:
    return json.dumps(record_to_dict(record), sort_keys=True) + "\n"


def _resume_records(path: Path, dataset: Dataset) -> list[RunRecord]:
    """The stored records of an interrupted batch.

    Every record is written as one whole line, so a last line without its
    newline was torn by a crash mid-write: it is dropped and cut from the
    file, so that new records append after the last whole one.  It is cut
    only once the whole lines have read as records, and the ground truth of
    each record of a problem of ``dataset`` matches its final plan.
    """
    data = path.read_bytes()
    whole = data.rfind(b"\n") + 1
    records = parse_records(data[:whole].decode(), path)
    for record in records:
        problem = dataset.problems.get(record.problem_id)
        if problem is not None:
            plan = parse_plan(record.final_plan, dataset.domain)
            check_ground_truth(record, validate_plan(problem, plan, dataset.domain))
    if whole < len(data):
        log.warning("%s: dropping a torn last record line (%d bytes)", path, len(data) - whole)
        with path.open("r+b") as fh:
            fh.truncate(whole)
    return records


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
    record, which is stored like any other, and the batch continues.  No
    target is shown an exemplar of its own id or of its ``problem_key``.
    """
    if config.shots > 0 and pool is None:
        raise ValueError("shots > 0 needs a few-shot pool")

    existing: dict[str, RunRecord] = {}
    if records_path is not None and Path(records_path).exists():
        existing = {r.problem_id: r for r in _resume_records(Path(records_path), dataset)}

    todo = [e for e in dataset.entries if e.id not in existing]
    # all shots are chosen before any backend call, so a pool too small fails first
    shots = {
        e.id: select_fewshots(pool, e.id, config.shots, dataset.problems[e.id]) if config.shots else ()
        for e in todo
    }
    write_lock = threading.Lock()
    records_file = None

    def work(entry: ManifestEntry) -> RunRecord:
        record = run_problem(
            dataset.domain,
            dataset.problems[entry.id],
            config,
            planner,
            critic,
            shots=shots[entry.id],
            problem_id=entry.id,
        )
        if records_file is not None:
            with write_lock:
                records_file.write(_record_line(record))
                records_file.flush()
        return record

    goldens = {pid: print_plan(plan) for pid, plan in dataset.plans.items()}
    planner, critic = make_backends(config, goldens)
    try:
        if records_path is not None:
            records_file = Path(records_path).open("a")
        if parallelism > 1 and len(todo) > 1:
            with ThreadPoolExecutor(max_workers=parallelism) as executor:
                records = list(executor.map(work, todo))
        else:  # on this thread, so Ctrl-C stops the batch at once
            records = [work(entry) for entry in todo]
    finally:
        critic.close()
        if records_file is not None:
            records_file.close()
    results = {record.problem_id: record for record in records}
    return [existing.get(e.id) or results[e.id] for e in dataset.entries]
