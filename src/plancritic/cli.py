"""Command-line interface.

Subcommands: ``generate`` benchmark instances, ``validate`` a plan,
``solve`` with the built-in breadth-first planner, ``obfuscate`` a dataset,
``run`` the full refinement loop over a manifest, ``score`` persisted run
records, and ``report`` them in several formats.

Each path argument's role is its parser ``type``, a ``PathRole``: a file
read, a manifest read with every file it lists, a file written, or a directory
written into.  ``_refuse_overwrite`` reads the roles, so that no command
writes over a file it reads.

Exit codes: 0 on success, 1 for domain-level failures (unparseable PDDL,
unsolvable instance, a record of a problem the manifest does not list), 2 for
usage errors such as missing or unreadable files, bad flags, or an output
that is the same file as an input.
A backend failure in ``run`` is filed in its problem's record.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING

from . import generators
from .generators import (
    SIZE_FIELDS,
    Benchmark,
    CollidingMap,
    Dataset,
    DatasetError,
    GenSpec,
    IncompleteMap,
    InvalidSpec,
    ObfuscationMap,
    ObfuscationMode,
    UnreadableMap,
    deceptive_map,
    identity_map,
    load_dataset,
    nonspecific_map,
    obfuscate_dataset,
    parse_file,
)
from .jsonform import AtLeast, FormError, OutOfRange, RefusedValue, from_json
from .pddl import (
    PddlError,
    parse_domain,
    parse_plan,
    parse_problem,
    print_plan,
)
from .report_formats import REPORT_FORMATS
from .search import SearchLimits, SearchStatus, bfs_plan

# the validator (semantics), the scorer (report) and the loop's modules
# (orchestrator, critics, llm, prompting) are imported by the commands that
# use them, so that generate, solve and obfuscate start with none of them,
# validate with the validator alone, and score and report without the loop;
# main catches their errors through the bases imported above
if TYPE_CHECKING:
    from .orchestrator import LoopConfig
    from .report import Metrics

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


class PathRole(Enum):
    """What a command does with a path argument, stated once as the
    argument's parser ``type``, which passes the path through unchanged."""

    READ = "a file the command reads"
    MANIFEST = "a manifest the command reads, with every file it lists"
    WRITE = "a file the command writes"
    DATASET_DIR = "a directory the command writes a dataset into, under its input's names"
    REPORT_DIR = "a directory the command writes the files of its --format into"

    def __call__(self, path: str) -> str:
        return path


def _options(args) -> dict[str, argparse.Action]:
    """The options of the subcommand that ran, by dest."""
    return {action.dest: action for action in args.parser._actions if action.option_strings}


def _flag(args, name: str) -> str:
    """The flag of the subcommand that ran whose dest is ``name``, else ``name``."""
    action = _options(args).get(name)
    return action.option_strings[0] if action else name


def _file_id(path) -> tuple[int, int] | None:
    try:
        stat = os.stat(path)
    except OSError:  # no file there yet: its write, if any, reports its own error
        return None
    return stat.st_dev, stat.st_ino


def _refuse_overwrite(args, **datasets: Dataset | None) -> None:
    """Raise UsageError when a file that the command that ran would write is
    the same file as one it reads, each known by its argument's ``PathRole``.
    Each manifest's loaded dataset, in ``datasets`` under its argument's dest
    even when a config named it, adds the manifest and every file it lists to
    the inputs, and its problem and plan file names to a ``DATASET_DIR``'s
    files.  A command calls this after it loads its inputs, before it writes."""
    outputs, inputs = {}, []  # what writes each output, by path; each input's name and paths
    for dest, action in _options(args).items():
        path, flag, role = vars(args).get(dest), action.option_strings[0], action.type
        if role is PathRole.MANIFEST and (path is not None or datasets.get(dest)):
            dataset = datasets[dest]  # a manifest given is loaded before the check
            name = flag if path is not None else f"the manifest {dataset.manifest}"
            inputs += [(name, [dataset.manifest]), (f"a file that {name} lists", (
                file for entry in dataset.entries
                for file in (entry.domain_file, entry.problem_file, entry.plan_file) if file
            ))]
        elif path is not None and role is PathRole.READ:
            inputs.append((flag, [path]))
        elif path is not None and role is PathRole.WRITE:
            outputs.setdefault(path, f"{flag} {path} would overwrite")
        elif path is not None and role in (PathRole.DATASET_DIR, PathRole.REPORT_DIR):
            names = REPORT_FORMATS[args.format] if role is PathRole.REPORT_DIR else [
                "domain.pddl", "manifest.jsonl",
                *(file.name for dataset in datasets.values() if dataset for entry in dataset.entries
                  for file in (entry.problem_file, entry.plan_file) if file),
            ]
            for name in names:
                outputs.setdefault(Path(path, name), f"{flag} {path} would write {name} over")
    written = {}  # what writes each output that exists, by its (st_dev, st_ino)
    for path, writes in outputs.items():
        written.setdefault(_file_id(path), writes)
    written.pop(None, None)
    for name, paths in inputs if written else ():  # no input can be an output that is not there
        for file in map(_file_id, dict.fromkeys(paths)):
            if file in written:
                raise UsageError(f"{written[file]} {name}")


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}: not JSON ({exc.msg} at line {exc.lineno}, column {exc.colno})"
        ) from exc


# ---------------------------------------------------------------------------
# generate


def _spec_from_args(args) -> GenSpec:
    benchmark = Benchmark(args.benchmark)
    sizes = {
        name: getattr(args, name)
        for names in SIZE_FIELDS.values()
        for name in names
        if getattr(args, name) is not None
    }
    if args.preset:
        if benchmark is not Benchmark.LOGISTICS:
            raise UsageError(f"--preset is for the logistics benchmark, not {benchmark.value}")
        if sizes:
            raise InvalidSpec("--preset sets every logistics size, so it takes no", *sizes)
        preset = GenSpec.logistics_easy if args.preset == "easy" else GenSpec.logistics_hard
        return preset(args.seed, args.count)
    return GenSpec(benchmark, args.seed, args.count, **sizes)


LIMIT_FIELDS = ("max_expanded", "max_plan_length")


def _limits_from_args(args) -> SearchLimits:
    """The limits given: the parser sets only the limit flags given."""
    return SearchLimits(**{name: vars(args)[name] for name in LIMIT_FIELDS if name in vars(args)})


def _cmd_generate(args) -> int:
    spec = _spec_from_args(args)
    if not args.solve and set(LIMIT_FIELDS) & set(vars(args)):
        raise UsageError("--max-expanded and --max-length are for --solve")
    limits = _limits_from_args(args)
    domain, problems = generators.generate(spec)
    plans = None
    if args.solve:
        plans = []
        for problem in problems:
            result = bfs_plan(domain, problem, limits)
            if result.status is not SearchStatus.FOUND:
                print(
                    f"error: could not solve generated instance {problem.name} "
                    f"({result.status.value})",
                    file=sys.stderr,
                )
                return EXIT_FAILURE
            plans.append(result.plan)
    manifest = generators.write_dataset(args.out, domain, problems, spec, plans)
    print(f"wrote {len(problems)} instance(s) to {manifest.parent}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate / solve


def _cmd_validate(args) -> int:
    from .semantics import format_trace, format_verdict, validate_plan, validation_to_dict

    domain = parse_file(parse_domain, Path(args.domain))
    problem = parse_file(parse_problem, Path(args.problem), domain)
    plan = parse_file(parse_plan, Path(args.plan), domain)
    result = validate_plan(problem, plan, domain)
    if args.json:
        print(json.dumps(validation_to_dict(result), indent=2, sort_keys=True))
    else:
        trace = format_trace(result)
        if trace and not args.quiet:
            print(trace)
            print()
        print(format_verdict(result.verdict))
    return EXIT_OK


def _cmd_solve(args) -> int:
    domain = parse_file(parse_domain, Path(args.domain))
    problem = parse_file(parse_problem, Path(args.problem), domain)
    _refuse_overwrite(args)
    result = bfs_plan(domain, problem, _limits_from_args(args))
    if args.stats:
        print(
            f"expanded={result.expanded} generated={result.generated} "
            f"operators={result.operators}",
            file=sys.stderr,
        )
    if result.status is SearchStatus.FOUND:
        text = print_plan(result.plan)
        if args.out:
            Path(args.out).write_text(text + "\n" if text else "")
        print(text if text else "; empty plan (goal already satisfied)")
        return EXIT_OK
    message = (
        "no plan exists"
        if result.status is SearchStatus.NO_PLAN
        else f"search limits exceeded after {result.expanded} expansions"
    )
    print(message, file=sys.stderr)
    return EXIT_FAILURE


# ---------------------------------------------------------------------------
# obfuscate


def _cmd_obfuscate(args) -> int:
    dataset = load_dataset(args.manifest)
    try:
        if args.map:
            mapping = from_json(ObfuscationMap, _read_json(args.map))
        elif args.mode == "deceptive":
            renames = {
                p.name: "MY-" + p.name[3:] if p.name.startswith("BW-") else p.name
                for p in dataset.problems.values()
            }
            mapping = deceptive_map(problem_names=renames)
        elif args.mode == "nonspecific":
            mapping = nonspecific_map(dataset.domain)
        else:
            mapping = identity_map(dataset.domain)
        _refuse_overwrite(args, manifest=dataset)
        manifest = obfuscate_dataset(dataset, mapping, args.out)
    # raised before any file is written
    except (FormError, IncompleteMap, CollidingMap, UnreadableMap) as exc:
        if args.map:
            raise UsageError(f"bad map file {args.map}: {exc}") from exc
        raise UsageError(f"--mode {args.mode} does not fit this dataset: {exc}") from exc
    print(f"wrote obfuscated dataset to {manifest.parent}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run


@dataclasses.dataclass(frozen=True)
class PoolSettings:
    """A run's few-shot pool, read beside ``LoopConfig``, whose field it is not."""

    pool_manifest: str | None = None
    pool_seed: int = 0


def _config_from_dict(raw, source: str = "run flags") -> tuple[LoopConfig, str | None, int]:
    """(config, pool manifest path, pool seed) of a run configuration, from
    the ``--config`` file ``source`` or the run flags; raises UsageError."""
    from .orchestrator import LoopConfig

    pool_raw = {}
    if isinstance(raw, dict):  # else the reader refuses it
        pool_raw = {f.name: raw[f.name] for f in dataclasses.fields(PoolSettings) if f.name in raw}
        raw = {key: value for key, value in raw.items() if key not in pool_raw}
    try:
        config = from_json(LoopConfig, raw)
        pool = from_json(PoolSettings, pool_raw)
    except FormError as exc:  # a refused value reads the same from the run flags and --config
        where = "" if isinstance(exc, RefusedValue) else f"{source}: "
        raise UsageError(f"bad run configuration: {where}{exc}") from None
    if pool_raw and config.shots == 0:  # a pool that no prompt would draw from
        raise UsageError(
            "bad run configuration: a few-shot pool needs shots > 0 "
            "(--shots, or shots in --config)"
        )
    if config.shots > 0 and not pool.pool_manifest:
        raise UsageError(
            "bad run configuration: shots > 0 needs a few-shot pool "
            "(--pool, or pool_manifest in --config)"
        )
    return config, pool.pool_manifest, pool.pool_seed


# each run flag, its parser settings and the --config keys it sets: a flag
# is a sparse spelling of --config, so the config classes hold every default
RUN_FLAGS = {
    "--critic": ({"choices": ["oracle", "mock", "llm"]}, "critic.backend"),
    "--planner": ({"choices": ["mock-golden", "mock", "llm"]}, "planner.backend"),
    "--k": ({"type": int}, "k"),
    "--shots": ({"type": int}, "shots"),
    "--pool": ({"type": PathRole.MANIFEST,
                "help": "manifest of solved problems for few-shot examples"}, "pool_manifest"),
    "--pool-seed": ({"type": int}, "pool_seed"),
    "--budget": ({"type": int}, "transcript_budget"),
    "--self-consistency": ({"type": int}, "critic.self_consistency"),
    "--golden-prob": ({"type": float}, "planner.golden_prob"),
    "--fp": ({"type": float}, "critic.false_positive"),
    "--fn": ({"type": float}, "critic.false_negative"),
    "--seed": ({"type": int}, "planner.seed critic.seed"),
}


def _config_from_args(args) -> tuple[LoopConfig, str | None, int]:
    """``_config_from_dict`` of the ``--config`` file, or of the run flags
    given: the parser sets a run flag, under its name, only when it is given."""
    flags = {flag: vars(args)[flag[2:]] for flag in RUN_FLAGS if flag[2:] in vars(args)}
    if args.config:
        if flags:
            raise UsageError(f"--config takes no run flags, got {', '.join(flags)}")
        return _config_from_dict(_read_json(args.config), args.config)

    for role in ("planner", "critic"):
        if flags.get("--" + role) == "llm":
            raise UsageError(f"llm {role} runs need --config with endpoint settings")
    if flags.get("--planner") == "mock-golden":  # the mock planner that always replays
        if "--golden-prob" in flags:
            raise UsageError("--golden-prob is for --planner mock, not mock-golden")
        flags["--planner"] = "mock"
    raw: dict = {}
    for flag, value in flags.items():
        for key in RUN_FLAGS[flag][1].split():
            section, _, name = key.rpartition(".")
            (raw.setdefault(section, {}) if section else raw)[name] = value
    return _config_from_dict(raw)


def _cmd_run(args) -> int:
    from . import report
    from .orchestrator import PlannerBackend, run_batch
    from .prompting import build_pool

    AtLeast(1).check("--parallelism", args.parallelism)
    config, pool_path, pool_seed = _config_from_args(args)
    # golden plans are read only for the mock planner, which replays them
    dataset = load_dataset(args.manifest, with_plans=config.planner.backend is PlannerBackend.MOCK)
    pool = pool_dataset = None
    if config.shots > 0:
        pool_dataset = load_dataset(pool_path)
        if pool_dataset.domain != dataset.domain:
            raise DatasetError(
                f"pool {pool_path} is for domain {pool_dataset.domain.name}, "
                f"the run is for {dataset.domain.name}"
            )
        pool = build_pool(pool_dataset, pool_seed)
    # a resumed run cuts a torn last line from its records file, and appends to it
    _refuse_overwrite(args, manifest=dataset, pool=pool_dataset)
    records = run_batch(
        dataset,
        config,
        parallelism=args.parallelism,
        records_path=args.records,
        pool=pool,
    )
    stops = Counter(record.stop_reason.value for record in records)
    stop_text = ", ".join(f"{k}={v}" for k, v in sorted(stops.items()))
    line = report.accuracy_line(records)
    print(f"{line} stops: {stop_text}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# score / report

def _score_records(args) -> Metrics:
    from . import report

    records = report.read_records(args.records)
    dataset = load_dataset(args.manifest, with_plans=False)  # scoring reads no golden plan
    _refuse_overwrite(args, manifest=dataset)
    return report.score(records, dataset.domain, dataset.problems)


def _cmd_score(args) -> int:
    from . import report

    text = report.metrics_json(_score_records(args))
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return EXIT_OK


def _cmd_report(args) -> int:
    from . import report

    metrics = _score_records(args)
    written = report.emit_report(metrics, args.format, args.out_dir)
    for path in written:
        print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_limit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-expanded", type=int, default=argparse.SUPPRESS)
    p.add_argument("--max-length", type=int, dest="max_plan_length", default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plancritic",
        description="Generate, solve, validate, and iteratively critique STRIPS plans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate benchmark instances")
    p.add_argument("--benchmark", required=True, choices=[b.value for b in Benchmark])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", required=True, type=PathRole.DATASET_DIR)
    p.add_argument("--blocks", type=int)
    p.add_argument("--preset", choices=["easy", "hard"])
    p.add_argument("--cities", type=int)
    p.add_argument("--places-per-city", type=int, dest="places_per_city")
    p.add_argument("--packages", type=int)
    p.add_argument("--trucks", type=int)
    p.add_argument("--airplanes", type=int)
    p.add_argument("--width", type=int, dest="grid_width")
    p.add_argument("--height", type=int, dest="grid_height")
    p.add_argument("--keys", type=int)
    p.add_argument("--solve", action="store_true", help="also write shortest plans")
    _add_limit_flags(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("validate", help="validate a plan against a problem")
    p.add_argument("--domain", required=True, type=PathRole.READ)
    p.add_argument("--problem", required=True, type=PathRole.READ)
    p.add_argument("--plan", required=True, type=PathRole.READ)
    p.add_argument("--json", action="store_true")
    p.add_argument("--quiet", action="store_true", help="print only the verdict")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", help="find a shortest plan by breadth-first search")
    p.add_argument("--domain", required=True, type=PathRole.READ)
    p.add_argument("--problem", required=True, type=PathRole.READ)
    p.add_argument("--out", type=PathRole.WRITE)
    p.add_argument("--stats", action="store_true", help="print search counts on stderr")
    _add_limit_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("obfuscate", help="rename a dataset's vocabulary")
    p.add_argument("--manifest", required=True, type=PathRole.MANIFEST)
    p.add_argument("--out", required=True, type=PathRole.DATASET_DIR)
    p.add_argument("--mode", choices=[m.value for m in ObfuscationMode], default="deceptive")
    p.add_argument("--map", type=PathRole.READ, help="JSON map file overriding --mode")
    p.set_defaults(func=_cmd_obfuscate)

    p = sub.add_parser("run", help="run the iterative critique loop over a manifest")
    p.add_argument("--manifest", required=True, type=PathRole.MANIFEST)
    p.add_argument("--records", required=True, type=PathRole.WRITE,
                   help="JSONL output; reused to resume")
    p.add_argument("--config", type=PathRole.READ,
                   help="JSON run configuration, in place of the run flags")
    flags = p.add_argument_group("run flags, not with --config", argument_default=argparse.SUPPRESS)
    for flag, (settings, _) in RUN_FLAGS.items():
        flags.add_argument(flag, dest=flag[2:], **settings)
    p.add_argument("--parallelism", type=int, default=1)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("score", help="score persisted run records")
    p.add_argument("--records", required=True, type=PathRole.READ)
    p.add_argument("--manifest", required=True, type=PathRole.MANIFEST)
    p.add_argument("--out", type=PathRole.WRITE)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("report", help="emit a report from run records")
    p.add_argument("--records", required=True, type=PathRole.READ)
    p.add_argument("--manifest", required=True, type=PathRole.MANIFEST)
    p.add_argument("--format", choices=REPORT_FORMATS, default="table-text")
    p.add_argument("--out-dir", required=True, dest="out_dir", type=PathRole.REPORT_DIR)
    p.set_defaults(func=_cmd_report)

    for p in sub.choices.values():  # for the options of the subcommand that ran
        p.set_defaults(parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # a generate or solve flag's dest is the name of the field it sets
    except OutOfRange as exc:
        print(f"error: {_flag(args, exc.field)} {exc.rule}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidSpec as exc:
        flags = ", ".join(_flag(args, name) for name in exc.fields)
        print(f"error: {exc.rule} {flags}".rstrip(), file=sys.stderr)
        return EXIT_USAGE
    # DatasetError, a ValueError, takes in report.MalformedRecord; OSError,
    # a file that cannot be read or written
    except (UsageError, DatasetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # ValueError takes in prompting.PoolTooSmall and report.MissingProblem
    except (PddlError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
