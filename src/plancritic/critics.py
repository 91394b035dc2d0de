"""Plan critics: verdict extraction, self-consistency voting, and backends.

A critic judges a candidate plan and answers with one of three labels,
matching the assessment phrases a critique prompt asks for.  Three backends
exist:

* ``llm``: renders its configured critique prompt and samples an
  OpenAI-compatible endpoint on it, once per self-consistency vote.
* ``oracle``: asks the ground-truth validator and writes a step-by-step
  verification as its critique text.
* ``mock``: starts from the oracle's label and flips it with configured
  false-positive / false-negative probabilities, deterministically seeded by
  (seed, problem id, iteration) on a stream apart from the mock planner's.

The refinement loop hands every critic its ``ValidationResult`` of the plan
as ``result``.  The oracle and mock critics judge from it and validate
nothing themselves; called without one, they validate the plan.  The llm
critic ignores it.  The oracle writes its critique text once per distinct
result: the loop holds one result per distinct plan of a problem, so a
repeated plan is written up once.
"""

from __future__ import annotations

import random
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Annotated, Sequence

from .jsonform import AtLeast, Between
from .llm import ChatClient, EndpointConfig, split_base_url
from .pddl import DomainDef, Plan, ProblemDef
from .prompting import TemplateId, build_critique_prompt, check_critique_template
from .semantics import (
    PHRASE_CORRECT,
    PHRASE_GOAL_NOT_REACHED,
    PHRASE_WRONG,
    CritiqueLabel,
    ValidationResult,
    format_trace,
    format_verdict,
    validate_plan,
    verdict_phrase,
)


_PHRASES = {
    CritiqueLabel.CORRECT: PHRASE_CORRECT,
    CritiqueLabel.WRONG: PHRASE_WRONG,
    CritiqueLabel.GOAL_NOT_REACHED: PHRASE_GOAL_NOT_REACHED,
}
_LABELS = {phrase: label for label, phrase in _PHRASES.items()}


def extract_verdict(text: str) -> CritiqueLabel:
    """Scan case-insensitively for the three assessment phrases.

    The phrase occurring last wins; text mentioning none of them counts as
    a wrong-plan judgement.
    """
    lowered = text.lower()
    best_label = CritiqueLabel.WRONG
    best_pos = -1
    for label, phrase in _PHRASES.items():
        pos = lowered.rfind(phrase)
        if pos > best_pos:
            best_pos = pos
            best_label = label
    return best_label


def self_consistency(labels: Sequence[CritiqueLabel]) -> CritiqueLabel:
    """Majority vote over sampled labels.

    The plan counts as correct only when strictly more votes say correct than
    not; every tie resolves to wrong.  Among not-correct votes, goal-not-
    reached is reported only when it strictly outnumbers wrong.
    """
    if not labels:
        raise ValueError("no votes to aggregate")
    n_correct = sum(1 for l in labels if l is CritiqueLabel.CORRECT)
    n_other = len(labels) - n_correct
    if n_correct > n_other:
        return CritiqueLabel.CORRECT
    if n_correct == n_other:
        return CritiqueLabel.WRONG
    n_gnr = sum(1 for l in labels if l is CritiqueLabel.GOAL_NOT_REACHED)
    if n_gnr > n_other - n_gnr:
        return CritiqueLabel.GOAL_NOT_REACHED
    return CritiqueLabel.WRONG


@dataclass(frozen=True)
class CritiqueVerdict:
    label: CritiqueLabel
    text: str  # raw critique text (a representative sample when N > 1)
    sample_count: int
    votes: dict[CritiqueLabel, int]
    prompt_chars: int = 0  # length of the critique prompt sent; 0 when none was

    @classmethod
    def from_samples(cls, samples: Sequence[tuple[CritiqueLabel, str]]) -> "CritiqueVerdict":
        labels = [label for label, _ in samples]
        final = self_consistency(labels)
        votes = {label: labels.count(label) for label in CritiqueLabel if label in labels}
        text = next((t for l, t in samples if l is final), samples[-1][1])
        return cls(final, text, len(samples), votes)


class CriticBackend(str, Enum):
    LLM = "llm"
    ORACLE = "oracle"
    MOCK = "mock"


@dataclass(frozen=True)
class CriticConfig(EndpointConfig):
    backend: CriticBackend = CriticBackend.ORACLE
    self_consistency: Annotated[int, AtLeast(1)] = 1
    template: TemplateId = TemplateId.CRITIQUE_0SHOT_DD
    temperature: Annotated[float | None, AtLeast(0)] = None  # None: 0.0 for N=1, else 0.7
    exemplars: tuple[str, ...] = ()
    # llm backend (endpoint fields come from EndpointConfig)
    max_output_tokens: Annotated[int, AtLeast(1)] = 4096
    max_concurrency: Annotated[int, AtLeast(1)] = 4  # most votes in flight at once
    # mock backend
    false_positive: Annotated[float, Between(0, 1)] = 0.0
    false_negative: Annotated[float, Between(0, 1)] = 0.0
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "backend", CriticBackend(self.backend))
        object.__setattr__(self, "template", TemplateId(self.template))
        object.__setattr__(self, "exemplars", tuple(self.exemplars))
        if self.backend is CriticBackend.LLM:
            split_base_url(self.base_url)
            check_critique_template(self.template, self.exemplars)

    @property
    def effective_temperature(self) -> float:
        if self.temperature is not None:
            return self.temperature
        return 0.0 if self.self_consistency == 1 else 0.7


class Critic:
    """Interface: judge one plan in the context of one problem.  ``result``
    is the plan's validation; the refinement loop always passes it."""

    def critique(
        self,
        domain: DomainDef,
        problem: ProblemDef,
        plan: Plan,
        *,
        problem_id: str,
        iteration: int,
        result: ValidationResult | None = None,
    ) -> CritiqueVerdict:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the critic holds; only the llm critic holds anything."""


def _oracle_sample(result: ValidationResult) -> tuple[CritiqueLabel, str]:
    trace = format_trace(result)
    text = (trace + "\n\n" if trace else "") + format_verdict(result.verdict)
    return _LABELS[verdict_phrase(result.verdict)], text


class OracleCritic(Critic):
    """Always answers with the ground-truth verdict, written up as a
    step-by-step verification once per distinct validation result."""

    def __init__(self, config: CriticConfig | None = None):
        self.config = config or CriticConfig(backend=CriticBackend.ORACLE)
        # the sample of each result judged, kept while the result is alive
        # (the loop keeps a problem's results until the problem's run ends)
        self._samples: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def critique(self, domain, problem, plan, *, problem_id, iteration, result=None):
        if result is None:
            result = validate_plan(problem, plan, domain)
        sample = self._samples.get(result)
        if sample is None:
            sample = self._samples[result] = _oracle_sample(result)
        return CritiqueVerdict.from_samples([sample] * self.config.self_consistency)


class MockCritic(Critic):
    """Ground truth with seeded label noise.

    A truly correct plan is reported wrong with probability
    ``false_negative``; a not-correct plan is reported correct with
    probability ``false_positive``.  The random stream depends only on
    (seed, problem id, iteration), so reruns reproduce the same answers; its
    key starts with ``critic:``, so a mock planner given the same seed draws
    independent numbers (a shared draw would make a degraded plan, drawn at
    or above ``golden_prob``, never pass at a lower ``false_positive``).
    """

    def __init__(self, config: CriticConfig):
        self.config = config

    def critique(self, domain, problem, plan, *, problem_id, iteration, result=None):
        if result is None:
            result = validate_plan(problem, plan, domain)
        true_label = _LABELS[verdict_phrase(result.verdict)]
        rng = random.Random(f"critic:{self.config.seed}:{problem_id}:{iteration}")
        samples = []
        for _ in range(self.config.self_consistency):
            label = true_label
            if true_label is CritiqueLabel.CORRECT:
                if rng.random() < self.config.false_negative:
                    label = CritiqueLabel.WRONG
            elif rng.random() < self.config.false_positive:
                label = CritiqueLabel.CORRECT
            samples.append((label, f"Assessment: {_PHRASES[label]}"))
        return CritiqueVerdict.from_samples(samples)


class LlmCritic(Critic):
    """Renders its critique prompt and samples an LLM judge once per vote."""

    def __init__(self, config: CriticConfig, client: ChatClient | None = None):
        self.config = config
        self.client = client or ChatClient(config.endpoint)
        # one vote pool for the critic's life, so that a vote thread keeps its
        # client session, and with it its connection, across critiques
        self._pool = None
        if config.self_consistency > 1 and config.max_concurrency > 1:
            self._pool = ThreadPoolExecutor(max_workers=config.max_concurrency)

    def critique(self, domain, problem, plan, *, problem_id, iteration, result=None):
        prompt = build_critique_prompt(
            self.config.template, domain, problem, plan, exemplars=self.config.exemplars or None
        )
        temperature = self.config.effective_temperature

        def one(_: int) -> tuple[CritiqueLabel, str]:
            text = self.client.complete(prompt, temperature, self.config.max_output_tokens)
            return extract_verdict(text), text

        votes = range(self.config.self_consistency)
        samples = list(self._pool.map(one, votes) if self._pool else map(one, votes))
        return replace(CritiqueVerdict.from_samples(samples), prompt_chars=len(prompt))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()


def make_critic(config: CriticConfig, client: ChatClient | None = None) -> Critic:
    if config.backend is CriticBackend.ORACLE:
        return OracleCritic(config)
    if config.backend is CriticBackend.MOCK:
        return MockCritic(config)
    return LlmCritic(config, client)
