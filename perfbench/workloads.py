"""The three workloads: set-up, one timed pass, and the correctness checks.

Every call into the program goes through ``plancritic.cli.main``, looked up on
the module at call time so that the traced run's wrappers see it.  The
benchmark's own reads of the program's outputs (the checks, the stub table)
use references bound at import, which the wrappers never replace.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import io
import json
import os
import select
import shutil
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import stub
from plancritic import cli
from plancritic.generators import load_entry, load_manifest
from plancritic.orchestrator import call_count
from plancritic.pddl import Plan, parse_plan, print_plan, print_problem
from plancritic.search import run_plan
from plancritic.semantics import PHRASE_CORRECT, PHRASE_WRONG, validate_plan, verdict_phrase

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
DEFAULT_SEED = 1
STUB_DELAY_MS = 10
# refine-stub's planner follows refine-mock's: the golden plan with
# probability GOLDEN_PROB per attempt, over the first attempt and K repairs
GOLDEN_PROB = 0.3
K = 10
ATTEMPTS = K + 1
# refine-stub's critic noise is that of the harness's noisy-critic acceptance
# setting (MockCritic, criterion 7 of tests/test_acceptance.py)
STUB_FALSE_POSITIVE = 0.20  # share of not-correct plans judged correct
STUB_FALSE_NEGATIVE = 0.05  # share of golden plans judged wrong
EXPLANATION_CHARS = 400

FAMILY_ARGS = {
    "logistics": ["--benchmark", "logistics", "--preset", "easy"],
    "minigrid": ["--benchmark", "minigrid", "--width", "3", "--height", "3", "--keys", "2"],
    "blocksworld": ["--benchmark", "blocksworld", "--blocks", "5"],
}


@dataclass(frozen=True)
class Sizes:
    solve_mix: tuple[tuple[str, int], ...]  # (family, instances per pass)
    mock_problems: int
    mock_pool: int
    stub_problems: int
    setup_reps: int


FULL = Sizes(
    # about a third of a pass's time goes to each family (logistics-easy
    # about 0.2 s, minigrid 3x3 about 0.07 s, blocksworld-5 about 6 ms per
    # instance), so each family's hot path weighs the same
    solve_mix=(("logistics", 3), ("minigrid", 8), ("blocksworld", 80)),
    mock_problems=200,
    mock_pool=20,
    stub_problems=60,
    setup_reps=5,
)
QUICK = Sizes(
    solve_mix=(("logistics", 1), ("minigrid", 2), ("blocksworld", 6)),
    mock_problems=20,
    mock_pool=6,
    stub_problems=8,
    setup_reps=1,
)


def sha_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_sha(directory: Path) -> str:
    """Hash of every file under ``directory``, names included."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def records_sha(lines: list[str]) -> str:
    """Hash of the record lines in problem order (parallel runs append in
    completion order)."""
    ordered = sorted(lines, key=lambda line: json.loads(line)["problem_id"])
    return sha_bytes("".join(line + "\n" for line in ordered).encode())


def call_cli(argv: list[str]) -> tuple[int, float]:
    """Run one ``plancritic`` command in-process; returns (exit code, seconds)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main([str(a) for a in argv])
    except Exception:  # a crash is a failed operation, not a benchmark error
        traceback.print_exc()
        code = -1
    return code, time.perf_counter() - start


def child_import_seconds(src: Path) -> float:
    """Wall time of a fresh interpreter that imports the program's CLI."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import plancritic.cli"], env=env)
    # a blocking wait: Popen.wait(timeout) polls at up to 50 ms intervals,
    # which would round the figure up by as much
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
    seconds = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return seconds


@dataclass
class PassResult:
    variant: int
    problems: int
    seconds: float
    failed: int
    digests: dict = field(default_factory=dict)
    stub: dict | None = None


class Checks:
    """Failed correctness checks of one run."""

    def __init__(self):
        self.messages: list[str] = []

    def fail(self, message: str) -> None:
        self.messages.append(message)
        print(f"check failed: {message}", file=sys.stderr)


def load_pins(workload: str, seed: int, sizes: Sizes) -> dict | None:
    if seed != DEFAULT_SEED or sizes is not FULL or not PINS.is_file():
        return None
    return json.loads(PINS.read_text()).get(workload)


class Workload:
    name = ""
    # input variants a run cycles through, each repeated; None gives every
    # pass (every traced/untraced pair in a traced run) fresh inputs
    variants: int | None = 1

    def __init__(self, work: Path, seed: int, sizes: Sizes, checks: Checks):
        self.work = work
        self.seed = seed
        self.sizes = sizes
        self.checks = checks
        self.pins = load_pins(self.name, seed, sizes)
        self.tracer = None  # set while a traced set-up or pass runs
        self.reference: dict | None = None  # dataset digests of the first set-up
        self.outputs: dict[int, dict] = {}  # output digests of each variant's first pass

    def cli(self, argv: list) -> tuple[int, float]:
        with self.tracer.recording() if self.tracer else contextlib.nullcontext():
            return call_cli(argv)

    def setup(self, rep: int) -> tuple[float, int, int]:
        """One set-up; returns (seconds, failed operations, attempted operations)."""
        return 0.0, 0, 0

    def run_pass(self, index: int, variant: int) -> PassResult:
        """One timed pass; passes of the same ``variant`` get the same inputs."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _compare(self, what: str, digests: dict, pinned: dict | None) -> bool:
        if pinned is not None and digests != pinned:
            self.checks.fail(f"{self.name} {what}: sha256 differs from pins.json: {digests}")
            return False
        return True

    def _check_outputs(self, index: int, variant: int, digests: dict) -> bool:
        """A repeated variant reproduces its outputs byte for byte; variant 0
        of the default seed matches pins.json."""
        ok = True
        if self.outputs.setdefault(variant, digests) != digests:
            self.checks.fail(f"{self.name} pass {index}: outputs differ from an earlier pass of variant {variant}")
            ok = False
        if variant == 0:
            ok = self._compare("variant 0 outputs", digests, (self.pins or {}).get("variant0")) and ok
        return ok

    def _check_dataset(self, manifest: Path, count: int) -> int:
        """Every instance is present and its plan is correct; returns failures."""
        entries = load_manifest(manifest)
        failed = max(0, count - len(entries))
        if failed:
            self.checks.fail(f"{manifest}: {len(entries)} of {count} instances written")
        for entry in entries:
            domain, problem, plan = load_entry(entry)
            if plan is None or not validate_plan(problem, plan, domain).is_correct:
                self.checks.fail(f"{entry.id}: written plan is not correct")
                failed += 1
        return failed


# ---------------------------------------------------------------------------
# solve: generate --solve over three families


class Solve(Workload):
    """Each variant generates, solves and writes its own instances."""

    name = "solve"
    # instance costs vary several-fold, so a run averages over as many
    # distinct instances as it has time for
    variants = None

    def run_pass(self, index: int, variant: int) -> PassResult:
        base = self.work / f"pass-{index}"
        instance_seed = self.seed * 1000 + variant
        seconds = 0.0
        problems = failed = 0
        digests = {}
        for family, count in self.sizes.solve_mix:
            out = base / family
            argv = ["generate", *FAMILY_ARGS[family], "--seed", instance_seed,
                    "--count", count, "--out", out, "--solve"]
            code, dt = self.cli(argv)
            seconds += dt
            problems += count
            if code != 0:
                self.checks.fail(f"solve {family} seed {instance_seed}: exit code {code}")
                failed += count
                continue
            failed += self._check_dataset(out / "manifest.jsonl", count)
            digests[family] = tree_sha(out)
        if not self._check_outputs(index, variant, digests):
            failed = problems
        shutil.rmtree(base, ignore_errors=True)
        return PassResult(variant, problems, seconds, failed, digests)


# ---------------------------------------------------------------------------
# refine-*: run then score over a solved blocksworld-5 dataset


class Refine(Workload):
    self_consistency = 1

    def __init__(self, *args):
        super().__init__(*args)
        self.dataset: Path | None = None
        self.problems: dict = {}
        self.domain = None

    def _generate(self, out: Path, seed: int, count: int) -> tuple[float, int]:
        code, dt = self.cli(["generate", *FAMILY_ARGS["blocksworld"], "--seed", seed,
                             "--count", count, "--out", out, "--solve"])
        if code != 0:
            self.checks.fail(f"{self.name} set-up: generate exit code {code}")
            return dt, count
        return dt, 0

    def _setup_digests(self, rep: int, digests: dict) -> int:
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            self.checks.fail(f"{self.name} set-up {rep}: dataset differs from set-up 0")
            return 1
        return 0 if self._compare("datasets", digests, (self.pins or {}).get("datasets")) else 1

    def _load_dataset(self, manifest: Path) -> None:
        self.dataset = manifest
        self.problems = {}
        for entry in load_manifest(manifest):
            self.domain, problem, _ = load_entry(entry)
            self.problems[entry.id] = problem

    def run_args(self, variant: int) -> list:
        raise NotImplementedError

    def run_pass(self, index: int, variant: int) -> PassResult:
        base = self.work / f"pass-{index}"
        base.mkdir(parents=True, exist_ok=True)
        records, score = base / "records.jsonl", base / "score.json"
        before = self.stub_stats()
        code_run, t_run = self.cli(["run", "--manifest", self.dataset, "--records", records,
                                    *self.run_args(variant)])
        code_score, t_score = self.cli(["score", "--records", records,
                                        "--manifest", self.dataset, "--out", score])
        after = self.stub_stats()
        n = len(self.problems)
        result = PassResult(variant, n, t_run + t_score, 0)
        if before is not None:
            result.stub = {k: after[k] - before[k] for k in ("requests", "connections", "service_s")}
            result.stub["inflight_max"] = after["inflight_max"]
        if code_run != 0 or code_score != 0 or not records.is_file() or not score.is_file():
            self.checks.fail(f"{self.name} pass {index}: exit codes run={code_run} score={code_score}")
            result.failed = n
        else:
            result.failed = self._check_pass(index, variant, records, score, result)
        shutil.rmtree(base, ignore_errors=True)
        return result

    def _check_pass(self, index: int, variant: int, records: Path, score: Path,
                    result: PassResult) -> int:
        lines = [line for line in records.read_text().splitlines() if line.strip()]
        data = [json.loads(line) for line in lines]
        ids = [r["problem_id"] for r in data]
        failed = set(self.problems) - set(ids)
        if failed or len(ids) != len(set(ids)):
            self.checks.fail(f"{self.name} pass {index}: records do not cover the manifest once")
        for record in data:
            reason = self._record_problem(record)
            if reason:
                self.checks.fail(f"{self.name} pass {index} {record['problem_id']}: {reason}")
                failed.add(record["problem_id"])
        metrics = json.loads(score.read_text())
        n_correct = sum(1 for r in data if (r["ground_truth"] or {}).get("verdict") == "correct")
        pass_ok = metrics["n"] == len(data) and abs(metrics["accuracy"] - n_correct / len(data)) < 1e-6
        if not pass_ok:
            self.checks.fail(f"{self.name} pass {index}: score disagrees with the records")
        if result.stub is not None:
            calls = sum(r["llm_calls"] for r in data)
            if result.stub["requests"] != calls:
                self.checks.fail(f"{self.name} pass {index}: stub saw {result.stub['requests']} "
                                 f"requests, records count {calls} calls")
                pass_ok = False
            if result.stub["inflight_max"] > 2:
                self.checks.fail(f"{self.name}: {result.stub['inflight_max']} requests in flight")
                pass_ok = False
        result.digests = {"records": records_sha(lines), "score": sha_bytes(score.read_bytes())}
        if not self._check_outputs(index, variant, result.digests):
            pass_ok = False
        return len(self.problems) if not pass_ok else len(failed)

    def _record_problem(self, record: dict) -> str | None:
        if record["stop_reason"] == "transport-failure" or record["error"] is not None:
            return f"{record['stop_reason']} record: {record['error']}"
        rounds = len(record["iterations"])
        if record["llm_calls"] != call_count(rounds, self.self_consistency):
            return f"llm_calls {record['llm_calls']} for {rounds} rounds"
        problem = self.problems.get(record["problem_id"])
        if problem is None:
            return "record for a problem not in the manifest"
        outcome = run_plan(self.domain, problem, parse_plan(record["final_plan"], self.domain))
        truth = record["ground_truth"] or {}
        if outcome.accepted:
            expected = {"verdict": "correct"}
        elif outcome.failed_step is not None:
            expected = {"verdict": "wrong_at_step", "step": outcome.failed_step,
                        "unmet": sorted(str(a) for a in outcome.unmet)}
            truth = {**truth, "unmet": sorted(truth.get("unmet", []))}
        else:
            expected = {"verdict": "goal_not_reached"}
            truth = {"verdict": truth.get("verdict")}
        if truth != expected:
            return f"ground_truth {record['ground_truth']} but the executor says {expected}"
        return None

    def stub_stats(self) -> dict | None:
        return None


class RefineMock(Refine):
    name = "refine-mock"
    variants = 4

    def setup(self, rep: int) -> tuple[float, int, int]:
        base = self.work / f"setup-{rep}"
        t_ds, f_ds = self._generate(base / "ds", self.seed, self.sizes.mock_problems)
        t_pool, f_pool = self._generate(base / "pool", self.seed + 100_000, self.sizes.mock_pool)
        failed = f_ds + f_pool
        if not failed:
            failed = self._setup_digests(rep, {"ds": tree_sha(base / "ds"), "pool": tree_sha(base / "pool")})
            self._load_dataset(base / "ds" / "manifest.jsonl")
            self.pool = base / "pool" / "manifest.jsonl"
        return t_ds + t_pool, failed, self.sizes.mock_problems + self.sizes.mock_pool

    def run_args(self, variant: int) -> list:
        # each variant draws the mock planner's attempts from its own stream,
        # so a run averages the number of rounds over many draws
        return ["--planner", "mock", "--golden-prob", GOLDEN_PROB, "--critic", "oracle", "--k", K,
                "--shots", 4, "--pool", self.pool, "--parallelism", 1,
                "--seed", self.seed * 1000 + variant]


# ---------------------------------------------------------------------------
# refine-stub: planner and critic on the llm backend against a local stub


def numbered(plan: Plan) -> str:
    return "\n".join(f"{i}. {step}" for i, step in enumerate(plan.steps, start=1))


def seeded_order(keys, seed: int, salt: str) -> list:
    """``keys`` in an order drawn from the seed."""
    return sorted(keys, key=lambda k: stub.sha(f"{seed}:{salt}:{k}"))


def exact_counts(n: int, weights: list[float]) -> list[int]:
    """``n`` split in proportion to ``weights`` (largest remainder)."""
    total = sum(weights)
    shares = [n * w / total for w in weights]
    counts = [int(x) for x in shares]
    by_remainder = sorted(range(len(weights)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return counts


def every_nth(items: list, share: float) -> list:
    """``round(share * len(items))`` items spread evenly over ``items``."""
    picked = round(share * len(items))
    return [items[(2 * j + 1) * len(items) // (2 * picked)] for j in range(picked)]


def critic_answer(result, phrase: str) -> str:
    """A few hundred characters of walkthrough ending in ``phrase``."""
    text = "I checked the plan against the domain, one action at a time."
    for step in result.trace:
        status = "its preconditions hold, so it applies" if step.applied else "a precondition fails"
        line = f"\nStep {step.index}: {step.action}: {status}."
        if len(text) + len(line) > EXPLANATION_CHARS:
            break
        text += line
    return text + "\nAssessment: " + phrase


def build_stub_table(manifest: Path, seed: int) -> dict:
    """The stub's answers for every problem of the dataset.

    The planner answers with the truncated plan until attempt ``golden_from``,
    then with the golden plan.  ``golden_from`` is ``j`` for the share
    ``p * (1 - p) ** j`` of the problems that refine-mock's planner
    (``p = GOLDEN_PROB``) first gets right at attempt ``j``; the rest, the
    share ``(1 - p) ** ATTEMPTS``, never get the golden plan.  The critic answers
    with the validator's verdict, except that STUB_FALSE_POSITIVE of the
    truncated plans it is shown are judged correct, and STUB_FALSE_NEGATIVE
    of the golden plans it is shown are judged wrong.  Which problems get
    which behaviour is drawn from the seed, but the shares are exact and
    spread evenly over the ``golden_from`` groups, so the number of rounds of
    a batch hardly depends on the seed.
    """
    problems, verdicts, keys = {}, {}, {}
    for entry in load_manifest(manifest):
        domain, problem, golden = load_entry(entry)
        problem_text = print_problem(problem)
        truncated = Plan(golden.steps[:-1])
        problem_key = stub.sha(problem_text)
        problems[problem_key] = {"golden": numbered(golden), "truncated": numbered(truncated)}
        keys[problem_key] = {}
        for name, plan in (("golden", golden), ("truncated", truncated)):
            key = keys[problem_key][name] = stub.critique_key(problem_text, print_plan(plan))
            verdicts[key] = validate_plan(problem, plan, domain)
    order = seeded_order(problems, seed, "planner")
    weights = [GOLDEN_PROB * (1 - GOLDEN_PROB) ** j for j in range(ATTEMPTS)]
    weights.append((1 - GOLDEN_PROB) ** ATTEMPTS)
    start = 0
    for golden_from, count in enumerate(exact_counts(len(order), weights)):
        for key in order[start : start + count]:
            problems[key]["golden_from"] = golden_from
        start += count
    phrases = {key: verdict_phrase(result.verdict) for key, result in verdicts.items()}
    # ``order`` is sorted by golden_from, so every_nth spreads over the groups
    shown_truncated = [k for k in order if problems[k]["golden_from"] > 0]
    false_positive = set(every_nth(shown_truncated, STUB_FALSE_POSITIVE))
    for k in false_positive:
        phrases[keys[k]["truncated"]] = PHRASE_CORRECT
    shown_golden = [k for k in order if problems[k]["golden_from"] < ATTEMPTS and k not in false_positive]
    for k in every_nth(shown_golden, STUB_FALSE_NEGATIVE):
        phrases[keys[k]["golden"]] = PHRASE_WRONG
    critiques = {key: critic_answer(verdicts[key], phrases[key]) for key in verdicts}
    return {"problems": problems, "critiques": critiques}


class StubProcess:
    """The stub server in its own interpreter; closing stdin stops it."""

    def __init__(self, table: Path, delay_ms: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--table", str(table), "--delay-ms", str(delay_ms)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub did not start (read {line!r})")
        self.port = int(line.split()[1])

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class RefineStub(Refine):
    name = "refine-stub"
    self_consistency = 3

    def __init__(self, *args):
        super().__init__(*args)
        self.stub: StubProcess | None = None
        self.config: Path | None = None

    def setup(self, rep: int) -> tuple[float, int, int]:
        if self.stub is not None:
            self.stub.close()
            self.stub = None
        base = self.work / f"setup-{rep}"
        t_ds, failed = self._generate(base / "ds", self.seed, self.sizes.stub_problems)
        if failed:
            return t_ds, failed, self.sizes.stub_problems
        manifest = base / "ds" / "manifest.jsonl"
        # the answer table is the benchmark's own work, so it is not timed
        table = build_stub_table(manifest, self.seed)
        (base / "table.json").write_text(json.dumps(table, sort_keys=True))
        start = time.perf_counter()
        self.stub = StubProcess(base / "table.json", STUB_DELAY_MS)
        seconds = t_ds + time.perf_counter() - start
        url = f"http://127.0.0.1:{self.stub.port}/v1"
        self.config = base / "config.json"
        self.config.write_text(json.dumps({
            "k": K,
            "shots": 0,
            "planner": {"backend": "llm", "base_url": url, "model": "stub", "temperature": 0.0},
            "critic": {"backend": "llm", "base_url": url, "model": "stub", "self_consistency": 3,
                       "max_concurrency": 1, "template": "critique_0shot_dd"},
        }))
        failed = self._setup_digests(rep, {"ds": tree_sha(base / "ds")})
        self._load_dataset(manifest)
        return seconds, failed, self.sizes.stub_problems

    def run_args(self, variant: int) -> list:
        return ["--config", self.config, "--parallelism", 2]

    def stub_stats(self) -> dict | None:
        return self.stub.stats() if self.stub else None

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None


WORKLOADS = {w.name: w for w in (Solve, RefineMock, RefineStub)}
