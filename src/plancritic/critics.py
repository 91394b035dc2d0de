"""Plan critics: verdict extraction, voted verdicts, and backends.

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
critic ignores it.  The oracle critic holds no cache: its verdict keeps the
result and writes it up only when its ``text`` is first read, which the loop
does only after a rejection, so an accepted round renders nothing.  The
write-up's step-by-step part is what ``format_trace`` keeps on the result,
and the loop holds one result per distinct plan, so a plan rejected again is
written up once.
"""

from __future__ import annotations

import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Annotated, Sequence

from .jsonform import AtLeast, Between
from .llm import ChatClient, EndpointConfig, split_base_url
from .pddl import DomainDef, Plan, ProblemDef
from .prompting import TemplateId, build_critique_prompt, check_critique_template
from .semantics import CritiqueLabel, ValidationResult, format_trace, format_verdict
from .semantics import self_consistency, validate_plan


def extract_verdict(text: str) -> CritiqueLabel:
    """Scan case-insensitively for the three assessment phrases.

    The phrase occurring last wins; text mentioning none of them counts as
    a wrong-plan judgement.
    """
    lowered = text.lower()
    best_label = CritiqueLabel.WRONG
    best_pos = -1
    for label in CritiqueLabel:
        pos = lowered.rfind(label.phrase)
        if pos > best_pos:
            best_pos = pos
            best_label = label
    return best_label


class CritiqueVerdict:
    """A critic's answer: its critique text (a representative sample when
    N > 1), its votes, and the length of the critique prompt it sent (0 when
    none was).

    The oracle's verdict keeps its validation, ``result``, in place of a
    text: its text is the validation written up step by step, rendered when
    ``text`` is first read and kept on the verdict.
    """

    __slots__ = ("_text", "votes", "prompt_chars", "_result")

    def __init__(
        self,
        text: str | None,
        votes: dict[CritiqueLabel, int],
        prompt_chars: int = 0,
        *,
        result: ValidationResult | None = None,
    ):
        self._text = text  # None until the write-up of ``result`` is read
        self.votes = votes
        self.prompt_chars = prompt_chars
        self._result = result

    @property
    def text(self) -> str:
        text = self._text
        if text is None:
            result = self._result
            trace = format_trace(result)
            text = self._text = (trace + "\n\n" if trace else "") + format_verdict(result.verdict)
        return text

    @property
    def label(self) -> CritiqueLabel:
        return self_consistency(self.votes)

    @property
    def sample_count(self) -> int:
        return sum(self.votes.values())

    @classmethod
    def from_samples(
        cls, samples: Sequence[tuple[CritiqueLabel, str]], prompt_chars: int = 0
    ) -> "CritiqueVerdict":
        votes = dict(Counter(label for label, _ in samples))
        final = self_consistency(votes)
        text = next((t for l, t in samples if l is final), samples[-1][1])
        return cls(text, votes, prompt_chars)


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


class OracleCritic(Critic):
    """Always answers with the ground-truth verdict, written up as a
    step-by-step verification.  The verdict keeps the validation and renders
    the write-up when its text is first read, so a plan that is accepted, and
    whose text no one reads, is never written up; the critic holds nothing
    but its config."""

    def __init__(self, config: CriticConfig | None = None):
        self.config = config or CriticConfig(backend=CriticBackend.ORACLE)

    def critique(self, domain, problem, plan, *, problem_id, iteration, result=None):
        if result is None:
            result = validate_plan(problem, plan, domain)
        votes = {result.verdict.label: self.config.self_consistency}
        return CritiqueVerdict(None, votes, result=result)


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
        true_label = result.verdict.label
        rng = random.Random(f"critic:{self.config.seed}:{problem_id}:{iteration}")
        samples = []
        for _ in range(self.config.self_consistency):
            label = true_label
            if true_label is CritiqueLabel.CORRECT:
                if rng.random() < self.config.false_negative:
                    label = CritiqueLabel.WRONG
            elif rng.random() < self.config.false_positive:
                label = CritiqueLabel.CORRECT
            samples.append((label, f"Assessment: {label.phrase}"))
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
        return CritiqueVerdict.from_samples(samples, len(prompt))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()


def make_critic(config: CriticConfig, client: ChatClient | None = None) -> Critic:
    if config.backend is CriticBackend.ORACLE:
        return OracleCritic(config)
    if config.backend is CriticBackend.MOCK:
        return MockCritic(config)
    return LlmCritic(config, client)
