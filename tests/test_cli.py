import argparse
import dataclasses
import importlib
import json
import math
import os
import pkgutil
import shutil
import socket
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import plancritic
from plancritic import cli, llm, orchestrator, report
from plancritic.critics import CriticConfig
from plancritic.domains import blocksworld_domain
from plancritic.generators import (
    DECEPTIVE_ACTIONS,
    DECEPTIVE_PREDICATES,
    SIZE_FIELDS,
    Benchmark,
    GenSpec,
    InvalidSpec,
    load_dataset,
    load_manifest,
)
from plancritic.jsonform import Above, OutOfRange, bounds
from plancritic.orchestrator import LoopConfig, PlannerConfig
from plancritic.pddl import parse_plan, print_domain, print_plan, print_problem
from plancritic.report import read_records, score
from plancritic.search import SearchLimits
from plancritic.semantics import CritiqueLabel

from .conftest import BW5_PROBLEM_TEXT, CORRECT_PLAN_TEXT, WRONG_PLAN_TEXT
from .helpers import tree_digest
from .test_critics import FakeEndpoint, chat_body

UNSOLVABLE_PROBLEM = """\
(define (problem impossible)
  (:domain blocksworld-4ops)
  (:objects a b)
  (:init (ontable a) (ontable b) (clear a) (clear b) (handempty))
  (:goal (and (on a b) (on b a))))
"""


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-dataset")
    code = cli.main(
        [
            "generate",
            "--benchmark", "blocksworld",
            "--blocks", "3",
            "--seed", "7",
            "--count", "3",
            "--out", str(out),
            "--solve",
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fixture")
    files = {
        "domain": root / "domain.pddl",
        "problem": root / "problem.pddl",
        "wrong": root / "wrong.plan",
        "correct": root / "correct.plan",
        "unsolvable": root / "unsolvable.pddl",
    }
    files["domain"].write_text(print_domain(blocksworld_domain()) + "\n")
    files["problem"].write_text(BW5_PROBLEM_TEXT)
    files["wrong"].write_text(WRONG_PLAN_TEXT)
    files["correct"].write_text(CORRECT_PLAN_TEXT)
    files["unsolvable"].write_text(UNSOLVABLE_PROBLEM)
    return files


class TestGenerate:
    def test_writes_dataset(self, dataset_dir):
        entries = load_manifest(dataset_dir / "manifest.jsonl")
        assert len(entries) == 3
        assert all(e.plan_file is not None for e in entries)

    def test_deterministic_across_invocations(self, tmp_path):
        args = [
            "generate", "--benchmark", "minigrid", "--width", "2", "--height", "2",
            "--keys", "1", "--seed", "5", "--count", "2",
        ]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_missing_size_flag(self, tmp_path, capsys):
        code = cli.main(
            ["generate", "--benchmark", "blocksworld", "--seed", "1", "--count", "1",
             "--out", str(tmp_path)]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sizes",
        [["--benchmark", "blocksworld", "--blocks", "50"],
         ["--benchmark", "minigrid", "--width", "0", "--height", "2"],
         ["--benchmark", "minigrid", "--width", "2"],
         ["--benchmark", "logistics", "--cities", "1"],
         # a size flag of another benchmark, or one given with --preset
         ["--benchmark", "blocksworld", "--blocks", "3", "--cities", "5"],
         ["--benchmark", "minigrid", "--width", "3", "--height", "3", "--blocks", "3"],
         ["--benchmark", "logistics", "--preset", "easy", "--packages", "9"]],
    )
    def test_bad_size_exits_2(self, tmp_path, capsys, sizes):
        code = cli.main(["generate", *sizes, "--seed", "1", "--count", "1", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.count("error:") == 1
        assert not (tmp_path / "manifest.jsonl").exists()

    @pytest.mark.parametrize(
        "sizes,reason",
        [(["--cities", "2", "--places-per-city", "2", "--trucks", "1", "--airplanes", "1"],
          "logistics needs one truck per city to stay solvable"),
         (["--cities", "2", "--places-per-city", "1", "--trucks", "2", "--airplanes", "0"],
          "multi-city logistics needs an airplane"),
         (["--cities", "1", "--places-per-city", "1", "--trucks", "1", "--airplanes", "0"],
          "deliveries need at least two places")],
        ids=["truck-per-city", "airplane", "two-places"],
    )
    def test_logistics_joint_rule_exits_2(self, tmp_path, capsys, sizes, reason):
        code = cli.main(["generate", "--benchmark", "logistics", *sizes, "--packages", "1",
                         "--seed", "1", "--count", "1", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not (tmp_path / "manifest.jsonl").exists()

    def test_solve_that_cannot_solve_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["generate", "--benchmark", "blocksworld", "--blocks", "5", "--seed", "1",
                         "--count", "1", "--out", str(out), "--solve", "--max-expanded", "1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: could not solve generated instance BW-rand-5 (limit-exceeded)\n"
        )
        assert not out.exists()

    def test_minigrid_keys_default_to_zero(self, tmp_path):
        args = ["generate", "--benchmark", "minigrid", "--width", "3", "--height", "3",
                "--seed", "5", "--count", "2"]
        assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.main(args + ["--keys", "0", "--out", str(tmp_path / "b")]) == 0
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
        assert load_manifest(tmp_path / "a" / "manifest.jsonl")[0].params["keys"] == 0

    def test_bad_search_limit_exits_2(self, tmp_path, capsys):
        code = cli.main(
            ["generate", "--benchmark", "blocksworld", "--blocks", "3", "--seed", "1",
             "--count", "1", "--out", str(tmp_path), "--solve", "--max-length", "0"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --max-length must be at least 1, got 0\n"

    def test_bad_size_names_its_flag(self, tmp_path, capsys):
        """A refused size names the flag given, not the field it sets."""
        out = tmp_path / "w0"
        code = cli.main(["generate", "--benchmark", "minigrid", "--width", "0", "--height", "2",
                         "--seed", "1", "--count", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: --width must be at least 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "sizes,line",
        [(["--benchmark", "minigrid", "--width", "2"], "minigrid needs --height"),
         (["--benchmark", "blocksworld", "--places-per-city", "2"],
          "blocksworld takes no --places-per-city"),
         (["--benchmark", "logistics", "--preset", "easy", "--places-per-city", "2"],
          "--preset sets every logistics size, so it takes no --places-per-city")],
        ids=["missing", "of-another-benchmark", "with-preset"],
    )
    def test_size_rule_names_its_flags(self, tmp_path, capsys, sizes, line):
        """A size that is missing, of another benchmark or given with
        ``--preset`` is named by the flag given, not the field it sets."""
        out = tmp_path / "out"
        code = cli.main(["generate", *sizes, "--seed", "1", "--count", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not out.exists()

    def test_search_limit_without_solve_refused(self, tmp_path, capsys):
        code = cli.main(
            ["generate", "--benchmark", "blocksworld", "--blocks", "3", "--seed", "1",
             "--count", "1", "--out", str(tmp_path), "--max-expanded", "5"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --max-expanded and --max-length are for --solve\n"
        assert not (tmp_path / "manifest.jsonl").exists()

    def test_logistics_preset(self, tmp_path):
        code = cli.main(
            ["generate", "--benchmark", "logistics", "--preset", "easy", "--seed", "3",
             "--count", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        assert len(load_manifest(tmp_path / "manifest.jsonl")) == 1

    def test_preset_of_another_benchmark_refused(self, tmp_path, capsys):
        code = cli.main(
            ["generate", "--benchmark", "blocksworld", "--blocks", "3", "--preset", "hard",
             "--seed", "3", "--count", "1", "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: --preset is for the logistics benchmark, not blocksworld\n"
        assert not (tmp_path / "manifest.jsonl").exists()

    def test_regenerating_deletes_the_files_no_longer_listed(self, tmp_path):
        """A smaller dataset written over a larger one leaves none of the
        larger one's problem and plan files; a file no manifest listed stays."""
        args = ["generate", "--benchmark", "blocksworld", "--blocks", "3", "--seed", "1",
                "--out", str(tmp_path), "--solve", "--count"]
        assert cli.main(args + ["3"]) == 0
        (tmp_path / "notes.txt").write_text("kept\n")
        assert cli.main(args + ["1"]) == 0
        assert sorted(os.listdir(tmp_path)) == [
            "blocksworld-1-0000.pddl", "blocksworld-1-0000.plan", "domain.pddl",
            "manifest.jsonl", "notes.txt",
        ]
        assert len(load_manifest(tmp_path / "manifest.jsonl")) == 1

    def test_old_manifest_that_does_not_load_exits_2(self, tmp_path, capsys):
        """A manifest in --out that does not load names no files to delete, so
        nothing is written."""
        (tmp_path / "manifest.jsonl").write_text("{not json\n")
        before = tree_digest(tmp_path)
        code = cli.main(["generate", "--benchmark", "blocksworld", "--blocks", "3", "--seed", "1",
                         "--count", "1", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'manifest.jsonl'} line 1: not JSON "
            "(Expecting property name enclosed in double quotes at column 2)\n"
        )
        assert tree_digest(tmp_path) == before


class TestValidate:
    def test_correct_plan(self, fixture_files, capsys):
        code = cli.main(
            ["validate", "--domain", str(fixture_files["domain"]),
             "--problem", str(fixture_files["problem"]),
             "--plan", str(fixture_files["correct"]), "--quiet"]
        )
        assert code == 0
        assert "the plan is correct" in capsys.readouterr().out

    def test_wrong_plan_trace(self, fixture_files, capsys):
        code = cli.main(
            ["validate", "--domain", str(fixture_files["domain"]),
             "--problem", str(fixture_files["problem"]),
             "--plan", str(fixture_files["wrong"])]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "step 9" in out
        assert "(clear b2): false" in out

    def test_json_output(self, fixture_files, capsys):
        code = cli.main(
            ["validate", "--domain", str(fixture_files["domain"]),
             "--problem", str(fixture_files["problem"]),
             "--plan", str(fixture_files["wrong"]), "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "wrong_at_step"
        assert data["step"] == 9
        assert len(data["trace"]) == 9

    def test_missing_file(self, fixture_files, capsys):
        code = cli.main(
            ["validate", "--domain", str(fixture_files["domain"]),
             "--problem", "/nonexistent/problem.pddl",
             "--plan", str(fixture_files["wrong"])]
        )
        assert code == 2

    def test_bad_domain(self, tmp_path, fixture_files, capsys):
        bad = tmp_path / "bad.pddl"
        bad.write_text("(define (domain d) (:requirements :adl))")
        code = cli.main(
            ["validate", "--domain", str(bad),
             "--problem", str(fixture_files["problem"]),
             "--plan", str(fixture_files["wrong"])]
        )
        assert code == 1
        assert "not supported" in capsys.readouterr().err

    def test_plan_error_names_the_plan_line(self, tmp_path, fixture_files, capsys):
        bad = tmp_path / "bad.plan"
        bad.write_text("(unstack b5 b2)\n\n(put-down ?x)\n")
        code = cli.main(
            ["validate", "--domain", str(fixture_files["domain"]),
             "--problem", str(fixture_files["problem"]),
             "--plan", str(bad)]
        )
        assert code == 1
        assert "variable '?x' in ground action (line 3, column 11)" in capsys.readouterr().err


class TestSolve:
    def test_finds_plan(self, fixture_files, tmp_path, capsys):
        out_file = tmp_path / "solution.plan"
        code = cli.main(
            ["solve", "--domain", str(fixture_files["domain"]),
             "--problem", str(fixture_files["problem"]), "--out", str(out_file)]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip()
        plan = parse_plan(printed, blocksworld_domain())
        assert len(plan.steps) == 6  # shortest repair for the fixture problem
        assert out_file.read_text().strip() == printed

    def test_no_plan(self, fixture_files, capsys):
        code = cli.main(
            ["solve", "--domain", str(fixture_files["domain"]),
             "--problem", str(fixture_files["unsolvable"])]
        )
        assert code == 1
        assert "no plan exists" in capsys.readouterr().err

    def test_limits_exceeded(self, fixture_files, capsys):
        code = cli.main(
            ["solve", "--domain", str(fixture_files["domain"]),
             "--problem", str(fixture_files["problem"]), "--max-expanded", "1"]
        )
        assert code == 1
        assert "limits exceeded" in capsys.readouterr().err


    # ground operators: 5 + 5 + 25 + 25 for five blocks, 2 + 2 + 4 + 4 for two
    @pytest.mark.parametrize(
        "problem,extra,code,operators",
        [
            ("problem", [], 0, "60"),
            ("unsolvable", [], 1, "12"),
            ("problem", ["--max-expanded", "1"], 1, "60"),
        ],
    )
    def test_stats_on_stderr(self, fixture_files, capsys, problem, extra, code, operators):
        argv = ["solve", "--domain", str(fixture_files["domain"]),
                "--problem", str(fixture_files[problem]), *extra]
        assert cli.main(argv) == code
        plain = capsys.readouterr()
        assert cli.main([*argv, "--stats"]) == code
        stats = capsys.readouterr()
        assert stats.out == plain.out
        line, rest = stats.err.split("\n", 1)
        assert rest == plain.err
        counts = dict(field.split("=") for field in line.split())
        assert list(counts) == ["expanded", "generated", "operators"]
        assert all(value.isdigit() for value in counts.values())
        assert counts["operators"] == operators

    def test_bad_search_limit_exits_2(self, fixture_files, capsys):
        code = cli.main(
            ["solve", "--domain", str(fixture_files["domain"]),
             "--problem", str(fixture_files["problem"]), "--max-expanded", "0"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --max-expanded must be at least 1, got 0\n"


class TestObfuscate:
    def test_deceptive_round_trip(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "mystery"
        code = cli.main(
            ["obfuscate", "--manifest", str(dataset_dir / "manifest.jsonl"),
             "--out", str(out), "--mode", "deceptive"]
        )
        assert code == 0
        domain_text = (out / "domain.pddl").read_text()
        assert "mystery-4ops" in domain_text
        assert "craves" in domain_text and "pick-up" not in domain_text
        # renamed plans still validate against renamed problems
        entries = load_manifest(out / "manifest.jsonl")
        validate_code = cli.main(
            ["validate", "--domain", str(entries[0].domain_file),
             "--problem", str(entries[0].problem_file),
             "--plan", str(entries[0].plan_file), "--quiet"]
        )
        assert validate_code == 0
        assert "the plan is correct" in capsys.readouterr().out

    def test_out_of_the_manifest_directory_refused(self, dataset_dir, tmp_path, capsys):
        """Obfuscating a dataset into its own directory would replace it and
        keep no inverse map; the command writes nothing."""
        copy = tmp_path / "data"
        shutil.copytree(dataset_dir, copy)
        before = tree_digest(copy)
        for out in (str(copy), f"{copy}/../{copy.name}/"):
            code = cli.main(["obfuscate", "--manifest", str(copy / "manifest.jsonl"), "--out", out])
            assert code == 2
            assert capsys.readouterr().err == (
                f"error: --out {out} would write manifest.jsonl over --manifest\n"
            )
        assert tree_digest(copy) == before

    def test_regenerating_deletes_the_files_no_longer_listed(self, dataset_dir, tmp_path):
        out = tmp_path / "mystery"
        assert cli.main(["obfuscate", "--manifest", str(dataset_dir / "manifest.jsonl"),
                         "--out", str(out)]) == 0
        one = tmp_path / "one"  # the first of dataset_dir's three problems
        assert cli.main(["generate", "--benchmark", "blocksworld", "--blocks", "3", "--seed", "7",
                         "--count", "1", "--out", str(one), "--solve"]) == 0
        assert cli.main(["obfuscate", "--manifest", str(one / "manifest.jsonl"),
                         "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == [
            "blocksworld-7-0000.pddl", "blocksworld-7-0000.plan", "domain.pddl", "manifest.jsonl",
        ]

    def test_map_file(self, dataset_dir, tmp_path):
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({
            "mode": "deceptive", "predicates": DECEPTIVE_PREDICATES,
            "actions": DECEPTIVE_ACTIONS, "domain_names": {"blocksworld-4ops": "mystery-4ops"},
        }))
        manifest = str(dataset_dir / "manifest.jsonl")
        out = tmp_path / "obf"
        assert cli.main(["obfuscate", "--manifest", manifest, "--out", str(out),
                         "--map", str(mapping)]) == 0
        assert "craves" in (out / "domain.pddl").read_text()
        assert '"obfuscation": "deceptive"' in (out / "manifest.jsonl").read_text()

    @pytest.mark.parametrize(
        "raw",
        [{"predicates": {}, "actions": {}, "renames": {}},
         {"mode": "cryptic", "predicates": {}, "actions": {}},
         {"actions": {}},
         {"predicates": {"clear": 5}, "actions": {}},
         {"predicates": {}, "actions": ["pick-up"]}],
    )
    def test_bad_map_file_exits_2(self, dataset_dir, tmp_path, capsys, raw):
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps(raw))
        code = cli.main(["obfuscate", "--manifest", str(dataset_dir / "manifest.jsonl"),
                         "--out", str(tmp_path / "obf"), "--map", str(mapping)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "map file" in err
        if "renames" in raw:
            assert f"bad map file {mapping}: 'renames' is an unknown key" in err

    def test_map_file_not_json_named(self, dataset_dir, tmp_path, capsys):
        mapping = tmp_path / "map.json"
        mapping.write_text("{predicates: {}}")
        code = cli.main(["obfuscate", "--manifest", str(dataset_dir / "manifest.jsonl"),
                         "--out", str(tmp_path / "obf"), "--map", str(mapping)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {mapping}: not JSON (Expecting property name enclosed in double quotes "
            "at line 1, column 2)\n"
        )
        assert not (tmp_path / "obf").exists()

    @pytest.mark.parametrize(
        "tables,reason",
        [({"predicates": {"clear": "province"}, "actions": DECEPTIVE_ACTIONS},
          "map is missing renames for: "),
         ({"predicates": {**DECEPTIVE_PREDICATES, "on": "planet"}, "actions": DECEPTIVE_ACTIONS},
          "predicate renames collide"),
         # a rename the reader refuses would write a dataset that no command reads
         ({"predicates": {**DECEPTIVE_PREDICATES, "clear": "not"}, "actions": DECEPTIVE_ACTIONS},
          "the renamed domain does not read back: negation is not supported in :predicates"),
         ({"predicates": DECEPTIVE_PREDICATES, "actions": {**DECEPTIVE_ACTIONS, "pick-up": "pick up"}},
          "the renamed domain does not read back: action section 'up'"),
         ({"predicates": DECEPTIVE_PREDICATES, "actions": DECEPTIVE_ACTIONS, "objects": {"b1": "?x"}},
          "the renamed problem {problem} does not read back: invalid object name '?x'")],
        ids=["incomplete", "colliding", "predicate-not", "action-with-blank", "object-variable"],
    )
    def test_map_file_that_does_not_fit_exits_2(self, dataset_dir, tmp_path, capsys, tables,
                                                 reason):
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps(tables))
        dataset = load_dataset(dataset_dir / "manifest.jsonl")
        reason = reason.format(problem=dataset.problems[dataset.entries[0].id].name)
        code = cli.main(["obfuscate", "--manifest", str(dataset_dir / "manifest.jsonl"),
                         "--out", str(tmp_path / "obf"), "--map", str(mapping)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad map file {mapping}: {reason}") and err.count("\n") == 1
        assert not (tmp_path / "obf").exists()

    def test_deceptive_mode_on_logistics_exits_2(self, logistics_dir, tmp_path, capsys):
        """The deceptive wordlist renames blocksworld only."""
        code = cli.main(["obfuscate", "--manifest", str(logistics_dir / "manifest.jsonl"),
                         "--out", str(tmp_path / "obf"), "--mode", "deceptive"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: --mode deceptive does not fit this dataset: map is missing renames for: "
        ) and err.count("\n") == 1
        assert not (tmp_path / "obf").exists()

    def test_nonspecific_mode(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "obf"
        code = cli.main(["obfuscate", "--manifest", str(dataset_dir / "manifest.jsonl"),
                         "--out", str(out), "--mode", "nonspecific"])
        assert code == 0
        domain_text = (out / "domain.pddl").read_text()
        assert domain_text.startswith("(define (domain nonspecific-domain)")
        assert "(:action action-1" in domain_text and "pick-up" not in domain_text
        assert '"obfuscation": "nonspecific"' in (out / "manifest.jsonl").read_text()
        entry = load_manifest(out / "manifest.jsonl")[0]
        capsys.readouterr()
        assert cli.main(["validate", "--domain", str(entry.domain_file), "--problem",
                         str(entry.problem_file), "--plan", str(entry.plan_file), "--quiet"]) == 0
        assert capsys.readouterr().out == (
            "all goal atoms hold in the final state.\nthe plan is correct\n"
        )

    def test_identity_mode(self, dataset_dir, tmp_path):
        out = tmp_path / "same"
        code = cli.main(
            ["obfuscate", "--manifest", str(dataset_dir / "manifest.jsonl"),
             "--out", str(out), "--mode", "identity"]
        )
        assert code == 0
        assert (out / "domain.pddl").read_text() == (
            dataset_dir / "domain.pddl"
        ).read_text()


class TestMockNoiseStreams:
    """``run``'s flags give the mock planner and the mock critic one
    ``--seed``; their draws must still be independent."""

    def test_false_positive_rate_on_degraded_plans(self, tmp_path):
        data = tmp_path / "data"
        assert cli.main(
            ["generate", "--benchmark", "blocksworld", "--blocks", "4", "--seed", "1",
             "--count", "60", "--out", str(data), "--solve"]
        ) == 0
        records = tmp_path / "records.jsonl"
        fp = 0.2  # below golden_prob, where one shared stream never flips a degraded plan
        assert cli.main(
            ["run", "--manifest", str(data / "manifest.jsonl"), "--records", str(records),
             "--planner", "mock", "--golden-prob", "0.3", "--critic", "mock",
             "--fp", str(fp), "--k", "0", "--seed", "1"]
        ) == 0
        dataset = load_dataset(data / "manifest.jsonl")
        step = score(read_records(records), dataset.domain, dataset.problems).steps[0]
        wrong = step.fp + step.tn
        assert wrong >= 30
        # within three standard deviations of Binomial(wrong, fp)
        assert abs(step.fp - wrong * fp) <= 3 * math.sqrt(wrong * fp * (1 - fp))


class TestRunScoreReport:
    def test_run_score_report_pipeline(self, dataset_dir, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        code = cli.main(
            ["run", "--manifest", str(dataset_dir / "manifest.jsonl"),
             "--records", str(records), "--critic", "oracle",
             "--planner", "mock-golden", "--k", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "n=3" in out and "accuracy=1.0000" in out
        assert "critic-accepted=3" in out
        assert len(read_records(records)) == 3

        # resuming does not duplicate or re-run anything
        assert cli.main(
            ["run", "--manifest", str(dataset_dir / "manifest.jsonl"),
             "--records", str(records), "--critic", "oracle",
             "--planner", "mock-golden", "--k", "2"]
        ) == 0
        assert len(read_records(records)) == 3
        capsys.readouterr()

        score_out = tmp_path / "metrics.json"
        code = cli.main(
            ["score", "--records", str(records),
             "--manifest", str(dataset_dir / "manifest.jsonl"),
             "--out", str(score_out)]
        )
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["accuracy"] == 1.0
        assert json.loads(score_out.read_text()) == printed

        report_dir = tmp_path / "report"
        code = cli.main(
            ["report", "--records", str(records),
             "--manifest", str(dataset_dir / "manifest.jsonl"),
             "--format", "csv", "--out-dir", str(report_dir)]
        )
        assert code == 0
        assert (report_dir / "steps.csv").exists()
        assert (report_dir / "summary.txt").read_text().strip() == "100.0±0.0"

    def test_mock_critic_flags(self, dataset_dir, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        code = cli.main(
            ["run", "--manifest", str(dataset_dir / "manifest.jsonl"),
             "--records", str(records), "--critic", "mock", "--fn", "1.0", "--k", "1"]
        )
        assert code == 0
        stored = read_records(records)
        # a critic that always rejects leaves every run exhausted after k+1 rounds
        assert all(r.stop_reason.value == "iterations-exhausted" for r in stored)
        assert all(r.llm_calls == 4 for r in stored)
        capsys.readouterr()

    def test_fewshot_pool(self, dataset_dir, tmp_path, capsys):
        pool_dir = tmp_path / "pool"
        assert cli.main(
            ["generate", "--benchmark", "blocksworld", "--blocks", "3", "--seed", "21",
             "--count", "4", "--out", str(pool_dir), "--solve"]
        ) == 0
        zero_shot = tmp_path / "zero.jsonl"
        assert cli.main(
            ["run", "--manifest", str(dataset_dir / "manifest.jsonl"),
             "--records", str(zero_shot), "--k", "1"]
        ) == 0
        records = tmp_path / "records.jsonl"
        code = cli.main(
            ["run", "--manifest", str(dataset_dir / "manifest.jsonl"),
             "--records", str(records), "--shots", "2",
             "--pool", str(pool_dir / "manifest.jsonl"), "--k", "1"]
        )
        assert code == 0
        stored = read_records(records)
        assert all(r.stop_reason.value == "critic-accepted" for r in stored)
        # shots make each planning prompt strictly longer than its zero-shot twin
        baseline = {r.problem_id: r.iterations[0].plan_prompt_chars for r in read_records(zero_shot)}
        for record in stored:
            assert record.iterations[0].plan_prompt_chars > baseline[record.problem_id]
        capsys.readouterr()

    def test_pool_too_small(self, dataset_dir, tmp_path, capsys):
        pool_dir = tmp_path / "pool"
        assert cli.main(
            ["generate", "--benchmark", "blocksworld", "--blocks", "3", "--seed", "22",
             "--count", "2", "--out", str(pool_dir), "--solve"]
        ) == 0
        code = cli.main(
            ["run", "--manifest", str(dataset_dir / "manifest.jsonl"),
             "--records", str(tmp_path / "r.jsonl"), "--shots", "5",
             "--pool", str(pool_dir / "manifest.jsonl")]
        )
        assert code == 1
        assert "pool" in capsys.readouterr().err

    def test_pool_may_be_the_run_manifest(self, dataset_dir, tmp_path, capsys):
        manifest = str(dataset_dir / "manifest.jsonl")
        endpoint = FakeEndpoint()
        endpoint.script = [(200, chat_body("no plan"))]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "k": 0, "shots": 2, "pool_manifest": manifest,
            "planner": {"backend": "llm", "base_url": endpoint.url, "model": "m"},
        }))
        try:
            code = cli.main(["run", "--manifest", manifest, "--records",
                             str(tmp_path / "r.jsonl"), "--config", str(config)])
        finally:
            endpoint.close()
        assert code == 0
        # three problems, two shots each: every prompt shows each problem
        # once, so no target is its own exemplar
        texts = [print_problem(p) for p in load_dataset(manifest).problems.values()]
        prompts = [r["payload"]["messages"][0]["content"] for r in endpoint.requests]
        assert len(prompts) == 3
        for prompt in prompts:
            assert [prompt.count(text) for text in texts] == [1, 1, 1]
        capsys.readouterr()

    def test_pool_without_the_target_too_small(self, dataset_dir, tmp_path, capsys):
        manifest = str(dataset_dir / "manifest.jsonl")
        records = tmp_path / "r.jsonl"
        code = cli.main(["run", "--manifest", manifest, "--records", str(records),
                         "--shots", "3", "--pool", manifest])
        assert code == 1
        assert "pool has 2" in capsys.readouterr().err
        assert not records.exists()

    def test_pool_from_another_domain(self, dataset_dir, logistics_dir, tmp_path, capsys):
        records = tmp_path / "r.jsonl"
        code = cli.main(
            ["run", "--manifest", str(dataset_dir / "manifest.jsonl"), "--records", str(records),
             "--shots", "1", "--pool", str(logistics_dir / "manifest.jsonl")]
        )
        assert code == 2
        assert "domain" in capsys.readouterr().err
        assert not records.exists()

    @pytest.mark.parametrize(
        "critic", [{"template": "critique_fewshot"}, {"template": "plan_fewshot"}]
    )
    def test_unrenderable_critic_template(self, dataset_dir, tmp_path, capsys, critic):
        endpoint = FakeEndpoint()
        endpoint.script = [(200, chat_body("the plan is correct"))]
        settings = {"backend": "llm", "base_url": endpoint.url, "model": "m"}
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"k": 1, "shots": 0, "planner": settings, "critic": {**settings, **critic}})
        )
        records = tmp_path / "r.jsonl"
        try:
            code = cli.main(["run", "--manifest", str(dataset_dir / "manifest.jsonl"),
                             "--records", str(records), "--config", str(config)])
        finally:
            endpoint.close()
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.endswith("\n") and err.count("\n") == 1
        assert not records.exists()
        assert endpoint.requests == []

    def test_llm_backend_without_endpoint_refused(self, dataset_dir, tmp_path, capsys):
        endpoint = FakeEndpoint()
        endpoint.script = [(200, chat_body("(pick-up a)"))]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "k": 1, "shots": 0,
            "planner": {"backend": "llm", "base_url": endpoint.url, "model": "m"},
            "critic": {"backend": "llm", "model": "m"},
        }))
        records = tmp_path / "r.jsonl"
        try:
            code = cli.main(["run", "--manifest", str(dataset_dir / "manifest.jsonl"),
                             "--records", str(records), "--config", str(config)])
        finally:
            endpoint.close()
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.count("\n") == 1
        assert "base_url" in err
        assert not records.exists()
        assert endpoint.requests == []

    def test_llm_requires_config(self, dataset_dir, tmp_path, capsys):
        code = cli.main(
            ["run", "--manifest", str(dataset_dir / "manifest.jsonl"),
             "--records", str(tmp_path / "r.jsonl"), "--critic", "llm"]
        )
        assert code == 2
        assert "config" in capsys.readouterr().err

    def test_bad_config_key(self, dataset_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k": 1, "bogus_knob": True}))
        code = cli.main(
            ["run", "--manifest", str(dataset_dir / "manifest.jsonl"),
             "--records", str(tmp_path / "r.jsonl"), "--config", str(config)]
        )
        assert code == 2
        assert "bogus_knob" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,config",
        [(["--k", "-1"], {"k": -1}),
         (["--critic", "mock", "--fp", "2"], {"critic": {"backend": "mock", "false_positive": 2}}),
         (["--critic", "oracle", "--fp", "2"],
          {"critic": {"backend": "oracle", "false_positive": 2}}),
         (["--fn", "-0.5"], {"critic": {"false_negative": -0.5}}),
         (["--self-consistency", "0"], {"critic": {"self_consistency": 0}}),
         (["--planner", "mock", "--golden-prob", "1.5"], {"planner": {"golden_prob": 1.5}}),
         (["--golden-prob", "7"], {"planner": {"golden_prob": 7}}),
         (["--shots", "-2"], {"shots": -2}),
         (["--budget", "-5"], {"transcript_budget": -5}),
         (["--budget", "0"], {"transcript_budget": 0})],
    )
    def test_bad_value_exits_2_from_flags_and_config(
        self, dataset_dir, tmp_path, capsys, flags, config
    ):
        records = tmp_path / "r.jsonl"
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        run = ["run", "--manifest", str(dataset_dir / "manifest.jsonl"), "--records", str(records)]
        errors = []
        for args in (flags, ["--config", str(config_file)]):
            assert cli.main(run + args) == 2, args
            errors.append(capsys.readouterr().err)
            assert errors[-1].startswith("error: bad run configuration")
            assert errors[-1].count("\n") == 1
            assert not records.exists()
        assert errors[0] == errors[1]

    def test_fields_of_other_backends_are_ignored(self, dataset_dir, tmp_path, capsys):
        """A flag sets its key whatever the backend, as the key does in
        --config; the oracle critic reads no noise rate or seed, and a bad
        one is refused all the same (test_bad_value_exits_2_from_flags_and_config)."""
        manifest = str(dataset_dir / "manifest.jsonl")
        records = tmp_path / "r.jsonl"
        flags = ["--critic", "oracle", "--fp", "0.9", "--fn", "0.9", "--seed", "3"]
        assert cli.main(["run", "--manifest", manifest, "--records", str(records), *flags]) == 0
        assert "accuracy=1.0000" in capsys.readouterr().out
        assert all(r.stop_reason.value == "critic-accepted" for r in read_records(records))
        config = cli._config_from_args(cli.build_parser().parse_args(
            ["run", "--manifest", manifest, "--records", str(records), *flags]))[0]
        assert (config.critic.false_positive, config.critic.false_negative) == (0.9, 0.9)
        assert config.critic.seed == config.planner.seed == 3

    def test_mock_golden_takes_no_golden_prob(self, dataset_dir, tmp_path, capsys):
        records = tmp_path / "r.jsonl"
        code = cli.main(
            ["run", "--manifest", str(dataset_dir / "manifest.jsonl"), "--records", str(records),
             "--planner", "mock-golden", "--golden-prob", "0.3"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --golden-prob is for --planner mock, not mock-golden\n"
        )
        assert not records.exists()

    @pytest.mark.parametrize("parallelism", ["0", "-3"])
    def test_parallelism_below_1_exits_2(self, dataset_dir, tmp_path, capsys, parallelism):
        records = tmp_path / "r.jsonl"
        code = cli.main(
            ["run", "--manifest", str(dataset_dir / "manifest.jsonl"), "--records", str(records),
             "--parallelism", parallelism]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --parallelism must be at least 1, got {parallelism}\n"
        )
        assert not records.exists()

    @pytest.mark.parametrize(
        "config",
        [{"shots": 0, "transcript_budget": "abc"}, {"k": 2.5}, {"k": True}, {"k": "2"},
         {"critic": {"self_consistency": 2.5}}, {"critic": {"false_positive": "0.1"}},
         {"critic": {"exemplars": "text"}}, {"planner": {"seed": None}},
         {"planner": {"base_url": 5}}, {"planner": "mock"}],
        ids=["budget-str", "k-float", "k-bool", "k-str", "sc-float", "fp-str", "exemplars-str",
             "seed-null", "url-int", "planner-str"],
    )
    def test_mistyped_config_value_refused(self, tmp_path, capsys, config):
        """Refused when the configuration is read, before the manifest,
        which here does not exist."""
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        records = tmp_path / "r.jsonl"
        code = cli.main(["run", "--manifest", str(tmp_path / "none.jsonl"),
                         "--records", str(records), "--config", str(config_file)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad run configuration: ") and err.count("\n") == 1
        assert " must be " in err
        assert not records.exists()

    @pytest.mark.parametrize(
        "config,refusal",
        [({"k": 1, "planner": {"backend": "llm", "base_url": "http://127.0.0.1:9/v1",
                               "model": "m", "timeout": -1}},
          "planner: timeout must be greater than 0, got -1"),
         ({"critic": {"backend": "oracle", "timeout": 0}},
          "critic: timeout must be greater than 0, got 0"),
         ({"planner": {"temperature": -0.5}}, "planner: temperature must be at least 0, got -0.5"),
         ({"critic": {"backend": "mock", "temperature": -3}},
          "critic: temperature must be at least 0, got -3"),
         ({"planner": {"backend": "llm", "base_url": "ftp://x", "model": "m"},
           "critic": {"backend": "llm", "base_url": "http://ok", "model": "m"}},
          "planner: base_url 'ftp://x' is not an http or https URL with a host"),
         ({"planner": {"backend": "llm", "base_url": "http://ok", "model": "m"},
           "critic": {"backend": "llm", "base_url": "ftp://x", "model": "m"}},
          "critic: base_url 'ftp://x' is not an http or https URL with a host"),
         ({"critic": {"backend": "llm", "base_url": "http://ok", "model": "m",
                      "template": "critique_fewshot"}},
          "critic: no value for the {self_evaluations_exemplars} placeholder"),
         ({"k": 1, "planner": {"requests_per_second": -5}},
          "planner: requests_per_second must be at least 0, got -5"),
         ({"critic": {"requests_per_second": -0.5}},
          "critic: requests_per_second must be at least 0, got -0.5"),
         ({"k": 1, "planner": {"max_output_tokens": -1}},
          "planner: max_output_tokens must be at least 1, got -1"),
         ({"critic": {"max_output_tokens": 0}},
          "critic: max_output_tokens must be at least 1, got 0"),
         ({"critic": {"max_concurrency": -3}},
          "critic: max_concurrency must be at least 1, got -3")],
        ids=["planner-timeout", "critic-timeout", "planner-temperature", "critic-temperature",
             "planner-url", "critic-url", "critic-template", "planner-rate", "critic-rate",
             "planner-tokens", "critic-tokens", "critic-concurrency"],
    )
    def test_refused_value_names_its_section(self, tmp_path, capsys, config, refusal):
        """A value a config class refuses is reported with its section when
        the configuration is read, before the manifest, which here does not
        exist."""
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        records = tmp_path / "r.jsonl"
        code = cli.main(["run", "--manifest", str(tmp_path / "none.jsonl"),
                         "--records", str(records), "--config", str(config_file)])
        assert code == 2
        assert capsys.readouterr().err == f"error: bad run configuration: {refusal}\n"
        assert not records.exists()

    def test_flags_and_config_write_the_same_records(self, dataset_dir, tmp_path):
        manifest = str(dataset_dir / "manifest.jsonl")
        pool_dir = tmp_path / "pool"
        assert cli.main(
            ["generate", "--benchmark", "blocksworld", "--blocks", "3", "--seed", "23",
             "--count", "4", "--out", str(pool_dir), "--solve"]
        ) == 0
        pool = str(pool_dir / "manifest.jsonl")
        by_flags = tmp_path / "flags.jsonl"
        assert cli.main(
            ["run", "--manifest", manifest, "--records", str(by_flags),
             "--planner", "mock", "--golden-prob", "0.4", "--critic", "mock",
             "--fp", "0.3", "--fn", "0.2", "--self-consistency", "3", "--k", "3",
             "--budget", "50000", "--seed", "4", "--shots", "2", "--pool", pool,
             "--pool-seed", "1"]
        ) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "k": 3, "shots": 2, "transcript_budget": 50000,
            "pool_manifest": pool, "pool_seed": 1,
            "planner": {"backend": "mock", "golden_prob": 0.4, "seed": 4},
            "critic": {"backend": "mock", "self_consistency": 3, "false_positive": 0.3,
                       "false_negative": 0.2, "seed": 4},
        }))
        by_config = tmp_path / "config.jsonl"
        assert cli.main(
            ["run", "--manifest", manifest, "--records", str(by_config), "--config", str(config)]
        ) == 0
        assert by_flags.read_bytes() == by_config.read_bytes()
        # the noise is in play: the planner degrades some plans, and some
        # critique's votes split, which the exact critic never does
        goldens = {pid: print_plan(plan) for pid, plan in load_dataset(manifest).plans.items()}
        rounds = [(r.problem_id, e) for r in read_records(by_flags) for e in r.iterations]
        assert any(e.plan != goldens[pid] for pid, e in rounds)
        assert any(len(e.votes) > 1 for _, e in rounds)

    def test_duplicate_ids_refused_before_any_call(self, dataset_dir, tmp_path, capsys):
        manifest = tmp_path / "manifest.jsonl"
        first = (dataset_dir / "manifest.jsonl").read_text().splitlines()[0]
        raw = json.loads(first)
        for key in ("domain_file", "problem_file", "plan_file"):
            raw[key] = str(dataset_dir / raw[key])
        manifest.write_text((json.dumps(raw) + "\n") * 2)
        endpoint = FakeEndpoint()
        endpoint.script = [(200, chat_body("the plan is correct"))]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "k": 0, "shots": 0, "planner": {"backend": "llm", "base_url": endpoint.url, "model": "m"},
        }))
        records = tmp_path / "r.jsonl"
        try:
            code = cli.main(["run", "--manifest", str(manifest), "--records", str(records),
                             "--config", str(config)])
        finally:
            endpoint.close()
        assert code == 2
        assert f"id {raw['id']} twice" in capsys.readouterr().err
        assert endpoint.requests == []
        assert not records.exists()

    def test_shots_without_pool_exit_2_from_flags_and_config(self, dataset_dir, tmp_path, capsys):
        records = tmp_path / "r.jsonl"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k": 1, "shots": 2, "pool_seed": 3}))
        run = ["run", "--manifest", str(dataset_dir / "manifest.jsonl"), "--records", str(records)]
        for args in (["--shots", "2"], ["--config", str(config)]):
            assert cli.main(run + args) == 2, args
            assert capsys.readouterr().err == (
                "error: bad run configuration: shots > 0 needs a few-shot pool "
                "(--pool, or pool_manifest in --config)\n"
            )
            assert not records.exists()

    @pytest.mark.parametrize(
        "flags,config",
        [(["--pool", "/nonexistent/pool.jsonl", "--pool-seed", "4"],
          {"pool_manifest": "/nonexistent/pool.jsonl", "pool_seed": 4}),
         (["--pool-seed", "0"], {"pool_seed": 0}),
         (["--shots", "0", "--pool", "pool.jsonl"], {"shots": 0, "pool_manifest": "pool.jsonl"})],
        ids=["pool-and-seed", "seed-alone", "zero-shots-given"],
    )
    def test_pool_without_shots_exit_2_from_flags_and_config(
        self, dataset_dir, tmp_path, capsys, flags, config
    ):
        """A pool that no prompt would draw from is refused in both forms, not
        run zero-shot."""
        records = tmp_path / "r.jsonl"
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        run = ["run", "--manifest", str(dataset_dir / "manifest.jsonl"), "--records", str(records)]
        for args in (flags, ["--config", str(config_file)]):
            assert cli.main(run + args) == 2, args
            assert capsys.readouterr().err == (
                "error: bad run configuration: a few-shot pool needs shots > 0 "
                "(--shots, or shots in --config)\n"
            )
            assert not records.exists()

    @pytest.mark.parametrize(
        "pool",
        [{"pool_manifest": 5}, {"pool_manifest": ["pool.jsonl"]}, {"pool_seed": True},
         {"pool_seed": [1]}, {"pool_seed": "1"}, {"pool_seed": 1.0}, {"pool_seed": None}],
        ids=["manifest-int", "manifest-list", "seed-bool", "seed-list", "seed-str", "seed-float",
             "seed-null"],
    )
    def test_pool_setting_of_wrong_type_refused(self, dataset_dir, tmp_path, capsys, pool):
        manifest = str(dataset_dir / "manifest.jsonl")
        records = tmp_path / "r.jsonl"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k": 1, "shots": 1, "pool_manifest": manifest, **pool}))
        code = cli.main(["run", "--manifest", manifest, "--records", str(records),
                         "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        key = next(iter(pool))
        assert err.startswith(f"error: bad run configuration: {config}: '{key}' must be")
        assert err.count("\n") == 1
        assert not records.exists()

    def test_config_not_json_named(self, dataset_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"k": 1,\n "shots": 0,}')
        records = tmp_path / "r.jsonl"
        code = cli.main(["run", "--manifest", str(dataset_dir / "manifest.jsonl"),
                         "--records", str(records), "--config", str(config)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {config}: not JSON (Expecting property name enclosed in double quotes "
            "at line 2, column 13)\n"
        )
        assert not records.exists()

    def test_readme_config_example_loads(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        start = readme.index("```json\n", readme.index("To use a real model")) + len("```json\n")
        raw = json.loads(readme[start:readme.index("```", start)])
        config, pool_manifest, pool_seed = cli._config_from_dict(raw)
        assert config.shots == raw["shots"] > 0
        assert (pool_manifest, pool_seed) == (raw["pool_manifest"], raw["pool_seed"])

    def test_config_not_an_object(self, dataset_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps([["k", 1]]))
        code = cli.main(
            ["run", "--manifest", str(dataset_dir / "manifest.jsonl"),
             "--records", str(tmp_path / "r.jsonl"), "--config", str(config)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f'error: bad run configuration: {config}: the value must be an object, got [["k", 1]]\n'
        )

    def test_run_flags_refused_with_config(self, dataset_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k": 1, "shots": 0}))
        records = tmp_path / "r.jsonl"
        run = ["run", "--manifest", str(dataset_dir / "manifest.jsonl"), "--records", str(records),
               "--config", str(config)]
        assert cli.main(run + ["--k", "5", "--critic", "mock", "--fp", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err == "error: --config takes no run flags, got --critic, --k, --fp\n"
        assert not records.exists()
        for flag, value in [("--seed", "0"), ("--pool-seed", "0"), ("--golden-prob", "1")]:
            assert cli.main(run + [flag, value]) == 2, flag  # a default value is refused too
            assert flag in capsys.readouterr().err
        assert cli.main(run + ["--parallelism", "2"]) == 0
        assert [len(r.iterations) for r in read_records(records)] == [1, 1, 1]

    def test_resume_after_torn_last_line(self, dataset_dir, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        run = ["run", "--manifest", str(dataset_dir / "manifest.jsonl"),
               "--records", str(records), "--k", "2"]
        assert cli.main(run) == 0
        whole = records.read_bytes()
        last = whole.rstrip(b"\n").rfind(b"\n") + 1
        records.write_bytes(whole[: last + 30])  # killed while writing the last record
        assert cli.main(run) == 0
        assert records.read_bytes() == whole
        assert "accuracy=1.0000" in capsys.readouterr().out

    def test_malformed_whole_line_still_fails(self, dataset_dir, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text("{not json\n")
        code = cli.main(
            ["run", "--manifest", str(dataset_dir / "manifest.jsonl"),
             "--records", str(records), "--k", "2"]
        )
        assert code == 2

    def test_records_file_that_is_not_records_is_left_as_it_was(self, dataset_dir, tmp_path, capsys):
        """A file that does not read as records keeps its last line, which
        would read as a torn record, when the run is refused."""
        records = tmp_path / "notes.txt"
        records.write_text("notes\nlast line")
        code = cli.main(["run", "--manifest", str(dataset_dir / "manifest.jsonl"),
                         "--records", str(records), "--k", "2"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {records} line 1: not JSON (Expecting value at column 1)\n"
        )
        assert records.read_text() == "notes\nlast line"

    def test_score_missing_records_file(self, dataset_dir, capsys):
        code = cli.main(
            ["score", "--records", "/nonexistent/records.jsonl",
             "--manifest", str(dataset_dir / "manifest.jsonl")]
        )
        assert code == 2

    def test_score_record_of_a_problem_not_in_the_manifest(self, dataset_dir, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        manifest = str(dataset_dir / "manifest.jsonl")
        assert cli.main(["run", "--manifest", manifest, "--records", str(records)]) == 0
        lines = records.read_text().splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), "problem_id": "no-such-problem"})
        records.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["score", "--records", str(records), "--manifest", manifest]) == 1
        assert capsys.readouterr().err == (
            "error: records name problem 'no-such-problem', which the manifest does not list\n"
        )

    def test_run_against_a_closed_port_files_transport_failures(
        self, dataset_dir, tmp_path, monkeypatch
    ):
        """A backend failure is filed in its problem's record, and the batch
        goes on: ``run`` exits 0."""
        with socket.socket() as probe:  # a port that nothing listens on
            probe.bind(("127.0.0.1", 0))
            closed_port = probe.getsockname()[1]
        monkeypatch.setattr(llm, "MAX_ATTEMPTS", 1)  # no backoff between retries
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k": 1, "planner": {
            "backend": "llm", "base_url": f"http://127.0.0.1:{closed_port}/v1", "model": "m"}}))
        records = tmp_path / "records.jsonl"
        code = cli.main(["run", "--manifest", str(dataset_dir / "manifest.jsonl"),
                         "--records", str(records), "--config", str(config)])
        assert code == 0
        read = read_records(records)
        assert len(read) == 3
        assert {r.stop_reason for r in read} == {report.StopReason.TRANSPORT_FAILURE}
        assert all(r.error.startswith("planner: request failed after 1 attempt(s)") for r in read)


# each run flag with a value other than its default, and the --config it
# spells; the one planner that runs from flags alone is the default, mock
FLAG_AND_CONFIG = {
    "--critic": ("mock", {"critic": {"backend": "mock"}}),
    "--planner": ("mock", {"planner": {"backend": "mock"}}),
    "--k": ("3", {"k": 3}),
    "--shots": ("2", {"shots": 2}),  # refused alone, the same way in both forms
    "--pool": ("pool.jsonl", {"pool_manifest": "pool.jsonl"}),  # likewise refused alone
    "--pool-seed": ("5", {"pool_seed": 5}),  # likewise refused alone
    "--budget": ("1000", {"transcript_budget": 1000}),
    "--self-consistency": ("3", {"critic": {"self_consistency": 3}}),
    "--golden-prob": ("0.25", {"planner": {"golden_prob": 0.25}}),
    "--fp": ("0.1", {"critic": {"false_positive": 0.1}}),
    "--fn": ("0.2", {"critic": {"false_negative": 0.2}}),
    "--seed": ("7", {"planner": {"seed": 7}, "critic": {"seed": 7}}),
}


class TestRunFlagsSpellConfig:
    """A run flag is a sparse spelling of its --config key: a flag not given
    sets nothing, so the config classes hold every default."""

    @staticmethod
    def built(tmp_path, args=None, config=None):
        """What ``run`` builds, (config, pool manifest, pool seed), from the
        run flags ``args`` or from ``config`` as a --config file; a usage
        error's text when it refuses them."""
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            args = ["--config", str(path)]
        parsed = cli.build_parser().parse_args(
            ["run", "--manifest", "m.jsonl", "--records", "r.jsonl", *args]
        )
        try:
            return cli._config_from_args(parsed)
        except cli.UsageError as exc:
            return str(exc)

    def test_no_run_flags_is_the_empty_config(self, tmp_path):
        built = self.built(tmp_path, [])
        assert built == self.built(tmp_path, config={})
        assert built == (orchestrator.LoopConfig(), None, 0)
        assert built[0].shots == 0

    def test_every_flag_has_a_case(self):
        assert list(FLAG_AND_CONFIG) == list(cli.RUN_FLAGS)

    @pytest.mark.parametrize("flag", list(FLAG_AND_CONFIG))
    def test_flag_builds_its_config(self, tmp_path, flag):
        value, config = FLAG_AND_CONFIG[flag]
        by_flag = self.built(tmp_path, [flag, value])
        assert by_flag == self.built(tmp_path, config=config)
        assert (by_flag == self.built(tmp_path, [])) is (flag == "--planner")

    def test_mock_golden_is_the_default_planner(self, tmp_path):
        built = self.built(tmp_path, ["--planner", "mock-golden"])
        assert built == self.built(tmp_path, config={"planner": {"backend": "mock"}})
        assert built == self.built(tmp_path, [])


def _last_round(**change):
    """A record edit that changes its last round's fields."""
    return lambda r: {**r, "iterations": [*r["iterations"][:-1], {**r["iterations"][-1], **change}]}


# the ground truth of the empty plan on the first problem of dataset_dir
UNPLANNED_TRUTH = {"unsatisfied": ["(on b1 b2)"], "verdict": "goal_not_reached"}


def _unplanned(**change):
    """A record edit that makes the record's run end over budget before any
    round, so that its final plan is the empty one."""
    return lambda r: {**r, "iterations": [], "stop_reason": "budget-exceeded", "llm_calls": 0,
                      "error": "over budget", "final_plan": "", "ground_truth": UNPLANNED_TRUTH,
                      **change}


class TestRecordRefusal:
    """A records line the loop cannot have written fails with one error line
    that names the file and line, before any work."""

    @pytest.fixture()
    def records(self, dataset_dir, tmp_path, capsys):
        """Three records of three rejected rounds each."""
        path = tmp_path / "records.jsonl"
        code = cli.main(
            ["run", "--manifest", str(dataset_dir / "manifest.jsonl"), "--records", str(path),
             "--planner", "mock", "--golden-prob", "0", "--k", "2"]
        )
        assert code == 0
        capsys.readouterr()
        return path

    def _assert_refused(self, argv, path, line, capsys):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{path} line {line}: " in err
        return err

    def _commands(self, dataset_dir, path, tmp_path):
        manifest = str(dataset_dir / "manifest.jsonl")
        return [
            ["score", "--records", str(path), "--manifest", manifest],
            ["report", "--records", str(path), "--manifest", manifest,
             "--out-dir", str(tmp_path / "report")],
            ["run", "--manifest", manifest, "--records", str(path),
             "--planner", "mock", "--golden-prob", "0", "--k", "2"],
        ]

    @pytest.mark.parametrize(
        "tamper,reason",
        [
            (lambda rounds: [rounds[0], rounds[2]], "round steps [0, 2] are not 0..1"),
            (
                lambda rounds: [
                    {**rounds[0], "critic_label": "correct", "votes": {"correct": 1}}, rounds[1]
                ],
                "a round before the last is labelled correct",
            ),
        ],
        ids=["steps-0-2", "accepted-then-another"],
    )
    def test_shape_refused(self, records, dataset_dir, tmp_path, capsys, tamper, reason):
        lines = records.read_text().splitlines()
        data = json.loads(lines[1])
        data["iterations"] = tamper(data["iterations"])
        lines[1] = json.dumps(data, sort_keys=True)
        records.write_text("\n".join(lines[:2]) + "\n")  # the third problem is left to run
        before = records.read_bytes()
        for argv in self._commands(dataset_dir, records, tmp_path):
            assert reason in self._assert_refused(argv, records, 2, capsys)
        assert records.read_bytes() == before  # the resumed run made no record
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize(
        "edit,reason",
        [
            (lambda r: {"problem_id": r["problem_id"]}, "'max_steps' is missing"),
            (
                lambda r: {**r, "iterations": [
                    {k: v for k, v in r["iterations"][0].items() if k != "plan_prompt_chars"}
                ]},
                "'iterations[0].plan_prompt_chars' is missing",
            ),
            (lambda r: {**r, "max_steps": "2"}, "'max_steps' must be an integer, got \"2\""),
            (lambda r: {**r, "llm_calls": True}, "'llm_calls' must be an integer, got true"),
            (lambda r: {**r, "iterations": [7]}, "'iterations[0]' must be an object, got 7"),
            (
                lambda r: {**r, "stop_reason": "gave-up"},
                "'stop_reason' must be one of \"critic-accepted\", \"budget-exceeded\", "
                "\"iterations-exhausted\", \"transport-failure\", \"internal-error\", "
                "got \"gave-up\"",
            ),
            (lambda r: [r], "the value must be an object, got [{"),
            (lambda r: {**r, "max_steps": 1}, "3 rounds for max_steps 1"),
            (
                _last_round(critic_label="Correct!", votes={"bogus": 7}),
                "'iterations[2].critic_label' must be one of \"correct\", \"wrong\", "
                "\"goal_not_reached\", got \"Correct!\"",
            ),
            (
                _last_round(votes={"bogus": 7}),
                "'iterations[2].votes.bogus' must be one of \"correct\", \"wrong\", "
                "\"goal_not_reached\", got \"bogus\"",
            ),
            (
                lambda r: {**r, "stop_reason": "critic-accepted"},
                "stop reason critic-accepted without a last round labelled correct",
            ),
            (
                _last_round(critic_label="correct", votes={"correct": 1}),
                "a last round labelled correct with stop reason iterations-exhausted",
            ),
            (
                _last_round(votes={"wrong": 5}),
                "round 2 has 5 votes for self_consistency 1",
            ),
            (_last_round(votes={}), "round 2 has 0 votes for self_consistency 1"),
            (
                lambda r: _last_round(votes={"wrong": 2, "correct": -1})(
                    {**r, "self_consistency": 3}
                ),
                "round 2 has a vote count below 1",
            ),
            (
                _last_round(critic_label="wrong", votes={"correct": 1}),
                "round 2 is labelled wrong, but its votes give correct",
            ),
            (
                lambda r: _last_round(
                    critic_label="wrong", votes={"wrong": 1, "goal_not_reached": 2}
                )({**r, "self_consistency": 3}),
                "round 2 is labelled wrong, but its votes give goal_not_reached",
            ),
            # each of the fields the loop derives from the rounds follows from them
            (lambda r: {**r, "llm_calls": 0}, "llm_calls 0 for 3 rounds and their votes"),
            (lambda r: {**r, "llm_calls": 7}, "llm_calls 7 for 3 rounds and their votes"),
            (
                lambda r: {**r, "error": "boom"},
                "stop reason iterations-exhausted with error 'boom'",
            ),
            (
                lambda r: {**r, "stop_reason": "budget-exceeded"},
                "stop reason budget-exceeded with error None",
            ),
            (
                lambda r: {**r, "iterations": r["iterations"][:2], "llm_calls": 4,
                           "final_plan": r["iterations"][1]["plan"]},
                "iterations-exhausted after 2 of 3 rounds",
            ),
            (lambda r: {**r, "final_plan": ""}, "final_plan is not the last round's plan"),
            # ranges the loop's config keeps, on a record with no round to refuse
            (_unplanned(max_steps=-1), "max_steps must be at least 0, got -1"),
            (_unplanned(self_consistency=0), "self_consistency must be at least 1, got 0"),
            (
                _last_round(plan_prompt_chars=-7),
                "iterations[2]: plan_prompt_chars must be at least 0, got -7",
            ),
        ],
        ids=["only-problem-id", "round-without-field", "wrong-type", "bool-for-int",
             "round-not-object", "unknown-stop-reason", "not-an-object", "rounds-beyond-k",
             "unknown-label", "votes-for-no-label", "accepted-after-wrong",
             "correct-not-accepted", "votes-above-self-consistency", "no-votes",
             "vote-count-below-1", "label-not-its-votes", "label-not-its-split-votes",
             "no-llm-calls", "one-call-more-uncut", "error-without-failure",
             "failure-without-error", "exhausted-early", "final-plan-not-proposed",
             "max-steps-below-0", "self-consistency-0", "prompt-chars-below-0"],
    )
    def test_malformed_line_refused(self, records, dataset_dir, tmp_path, capsys, edit, reason):
        lines = records.read_text().splitlines()
        lines[0] = json.dumps(edit(json.loads(lines[0])))
        records.write_text("\n".join(lines) + "\n")
        for argv in self._commands(dataset_dir, records, tmp_path):
            assert reason in self._assert_refused(argv, records, 1, capsys)

    def test_ground_truth_not_its_final_plan_refused(self, records, dataset_dir, tmp_path, capsys):
        """A record's ground truth is the validator's verdict on its final plan:
        score and report refuse one that is not, and a resumed run refuses it
        before it cuts a torn last line or appends a record."""
        lines = records.read_text().splitlines()
        data = json.loads(lines[1])
        assert data["ground_truth"]["verdict"] != "correct"
        data["ground_truth"] = {"verdict": "correct"}
        lines[1] = json.dumps(data, sort_keys=True)
        score, report, run = self._commands(dataset_dir, records, tmp_path)
        for argv, tail in [(score, lines[2]), (report, lines[2]), (run, lines[2][:40])]:
            records.write_text("\n".join(lines[:2] + [tail]))  # a resumed run finds a torn line
            before = records.read_bytes()
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: the record of problem {data['problem_id']!r} has ")
            assert err.count("\n") == 1 and 'ground_truth {"verdict": "correct"}' in err
            assert records.read_bytes() == before
        assert not (tmp_path / "report").exists()

    def test_line_not_json_refused(self, records, dataset_dir, tmp_path, capsys):
        lines = records.read_text().splitlines()
        records.write_text("\n".join(lines[:2] + ["{not json"]) + "\n")
        for argv in self._commands(dataset_dir, records, tmp_path):
            err = self._assert_refused(argv, records, 3, capsys)
            assert "not JSON (Expecting property name enclosed in double quotes at column 2)" in err


def _drop(key):
    return lambda raw: {k: v for k, v in raw.items() if k != key}


def _set(key, value):
    return lambda raw: {**raw, key: value}


def _not_json(raw):
    return "{not json"


def _cut_short(raw):
    return '{"id": "p",'


# a line cut short names the column where it ends, on its own line
CUT_SHORT = "not JSON (Expecting property name enclosed in double quotes at column 12)"


class TestOneReadingRule:
    """Every JSON object the program loads is read by one rule: an unknown
    key, a missing required field, ``true`` for an integer, ``null`` for a
    string that takes no null and a mapping key not of its key type (a vote
    for no label) each exit 2 with one error line that names the
    file, the line of a manifest or records file, and the field.  A run
    configuration has no required field (every setting has a default), and a
    map file has no integer field, so those two pairs have no case.  The lines
    of a manifest, of a records file and of a resumed batch's records file are
    read by one loop, so a fault in each is worded alike."""

    CASES = {
        ("config", "unknown-key"): (_set("note", 1), "'note' is an unknown key"),
        ("config", "true-for-int"): (_set("k", True), "'k' must be an integer, got true"),
        ("config", "null-for-str"): (
            _set("critic", {"model": None}), "'critic.model' must be a string, got null"
        ),
        ("map", "unknown-key"): (_set("note", 1), "'note' is an unknown key"),
        ("map", "missing"): (_drop("actions"), "'actions' is missing"),
        ("map", "null-for-str"): (
            _set("predicates", {"clear": None}), "'predicates.clear' must be a string, got null"
        ),
        ("manifest", "unknown-key"): (_set("note", 1), "'note' is an unknown key"),
        ("manifest", "missing"): (_drop("problem_file"), "'problem_file' is missing"),
        ("manifest", "true-for-int"): (_set("seed", True), "'seed' must be an integer, got true"),
        ("manifest", "null-for-str"): (_set("id", None), "'id' must be a string, got null"),
        ("manifest", "not-json"): (
            _not_json, "not JSON (Expecting property name enclosed in double quotes at column 2)"
        ),
        ("manifest", "cut-short"): (_cut_short, CUT_SHORT),
        ("record", "unknown-key"): (_set("note", 1), "'note' is an unknown key"),
        ("record", "missing"): (_drop("final_plan"), "'final_plan' is missing"),
        ("record", "true-for-int"): (
            lambda raw: {**raw, "iterations": [{**raw["iterations"][0], "step": True}]},
            "'iterations[0].step' must be an integer, got true",
        ),
        ("record", "null-for-str"): (
            _set("problem_id", None), "'problem_id' must be a string, got null"
        ),
        ("record", "bad-vote-key"): (
            lambda raw: {**raw, "iterations": [{**raw["iterations"][0], "votes": {"yes": 1}}]},
            "'iterations[0].votes.yes' must be one of \"correct\", \"wrong\", "
            "\"goal_not_reached\", got \"yes\"",
        ),
        ("record", "not-json"): (
            _not_json, "not JSON (Expecting property name enclosed in double quotes at column 2)"
        ),
        ("record", "cut-short"): (_cut_short, CUT_SHORT),
    }
    # a resumed run reads its records file as score does, with the same cases
    FAULTS = list(CASES) + [
        ("resumed", fault) for fault in ("unknown-key", "missing", "not-json", "cut-short")
    ]

    @staticmethod
    def _json_lines(reader, dataset_dir, tmp_path, capsys):
        """``(path, objects, argv)``: the JSON-lines file that ``reader``
        reads, its lines as objects, and the command that reads it.  ``score``
        reads a manifest and a records file; a resumed ``run``, with one
        problem left, reads its records file."""
        manifest = str(dataset_dir / "manifest.jsonl")
        records = tmp_path / "records.jsonl"
        run = ["run", "--manifest", manifest, "--records", str(records), "--k", "1"]
        assert cli.main(run) == 0
        capsys.readouterr()
        raws = [json.loads(line) for line in records.read_text().splitlines()]
        if reader == "record":
            return records, raws, ["score", "--records", str(records), "--manifest", manifest]
        if reader == "resumed":
            return records, raws[:2], run
        path = tmp_path / "manifest.jsonl"
        raws = [json.loads(line) for line in (dataset_dir / "manifest.jsonl").read_text().splitlines()]
        for raw in raws:
            for key in ("domain_file", "problem_file", "plan_file"):
                raw[key] = str(dataset_dir / raw[key])
        return path, raws, ["score", "--records", str(records), "--manifest", str(path)]

    @pytest.mark.parametrize("reader,fault", FAULTS, ids=["-".join(c) for c in FAULTS])
    def test_fault_refused(self, dataset_dir, tmp_path, capsys, reader, fault):
        edit, reason = self.CASES["record" if reader == "resumed" else reader, fault]
        if reader == "config":
            records = tmp_path / "records.jsonl"
            path, where = tmp_path / "config.json", "bad run configuration: {}: "
            path.write_text(json.dumps(edit({"k": 1})))
            argv = ["run", "--manifest", str(dataset_dir / "manifest.jsonl"),
                    "--records", str(records), "--config", str(path)]
        elif reader == "map":
            path, where = tmp_path / "map.json", "bad map file {}: "
            tables = {"predicates": DECEPTIVE_PREDICATES, "actions": DECEPTIVE_ACTIONS}
            path.write_text(json.dumps(edit(tables)))
            argv = ["obfuscate", "--manifest", str(dataset_dir / "manifest.jsonl"),
                    "--out", str(tmp_path / "obf"), "--map", str(path)]
        else:
            path, raws, argv = self._json_lines(reader, dataset_dir, tmp_path, capsys)
            index = 1 if reader == "manifest" else 0
            where = f"{{}} line {index + 1}: "
            lines = [json.dumps(raw) for raw in raws]
            edited = edit(raws[index])
            lines[index] = edited if isinstance(edited, str) else json.dumps(edited)
            path.write_text("".join(line + "\n" for line in lines))
        before = path.read_bytes()
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {where.format(path)}{reason}\n"
        assert path.read_bytes() == before  # a resumed run appended no record
        assert not (tmp_path / "obf").exists()

    @pytest.mark.parametrize("layout", ["blank-lines", "crlf", "raw-u2028"])
    @pytest.mark.parametrize("reader", ["manifest", "record", "resumed"])
    def test_lines_read(self, dataset_dir, tmp_path, capsys, reader, layout):
        """Blank lines and ``\\r\\n`` line ends read, and a line ends at ``\\n``
        alone: a raw U+2028 inside a string (``json.dumps`` escapes it, ``jq``
        writes it as it is) ends no line."""
        path, raws, argv = self._json_lines(reader, dataset_dir, tmp_path, capsys)
        if layout == "raw-u2028" and reader != "manifest":  # a record with an error: its critique failed
            raws[0].update(iterations=[], llm_calls=1, stop_reason="transport-failure", error="critic: down")
        path.write_text("".join(json.dumps(raw) + "\n" for raw in raws))
        assert cli.main(argv) == 0
        expected = capsys.readouterr().out
        if layout == "raw-u2028":
            raws[0]["benchmark" if reader == "manifest" else "error"] = "line\u2028separator"
        lines = [json.dumps(raw, ensure_ascii=False) for raw in raws]
        text = {"blank-lines": "\n \n" + "\n\n".join(lines) + "\n\n",
                "crlf": "".join(line + "\r\n" for line in lines),
                "raw-u2028": "".join(line + "\n" for line in lines)}[layout]
        path.write_bytes(text.encode())
        assert cli.main(argv) == 0, capsys.readouterr().err
        assert capsys.readouterr().out == expected
        if reader == "resumed":
            assert len(read_records(path)) == 3


class TestManifestRefusal:
    """A malformed manifest line fails with one error line that names the
    manifest and the line."""

    @pytest.mark.parametrize(
        "line,reason",
        [
            ("{}", "'id' is missing"),
            ('{"id": "p", "domain_file": "domain.pddl"}', "'problem_file' is missing"),
            ('{"id": "p", "domain_file": 3, "problem_file": "p.pddl"}',
             "'domain_file' must be a string, got 3"),
            ('["id"]', 'the value must be an object, got ["id"]'),
            ("not json", "not JSON (Expecting value at column 1)"),
        ],
        ids=["empty-object", "no-problem-file", "number-for-path", "not-an-object", "not-json"],
    )
    def test_malformed_line_refused(self, dataset_dir, tmp_path, capsys, line, reason):
        manifest = tmp_path / "manifest.jsonl"
        first = (dataset_dir / "manifest.jsonl").read_text().splitlines()[0]
        raw = json.loads(first)
        for key in ("domain_file", "problem_file", "plan_file"):
            raw[key] = str(dataset_dir / raw[key])
        manifest.write_text(json.dumps(raw) + "\n\n" + line + "\n")
        records = tmp_path / "records.jsonl"
        records.write_text("")
        commands = [
            ["run", "--manifest", str(manifest), "--records", str(records)],
            ["score", "--records", str(records), "--manifest", str(manifest)],
            ["report", "--records", str(records), "--manifest", str(manifest),
             "--out-dir", str(tmp_path / "report")],
            ["obfuscate", "--manifest", str(manifest), "--out", str(tmp_path / "obf")],
        ]
        for argv in commands:
            assert cli.main(argv) == 2, argv[0]
            assert capsys.readouterr().err == f"error: {manifest} line 3: {reason}\n"
        assert records.read_text() == ""
        assert not (tmp_path / "report").exists() and not (tmp_path / "obf").exists()

    @pytest.mark.parametrize(
        "key,value,reason",
        [
            ("id", 5, "'id' must be a string, got 5"),
            ("domain_file", None, "'domain_file' must be a string, got null"),
            ("problem_file", ["p.pddl"], "'problem_file' must be a string, got [\"p.pddl\"]"),
            ("plan_file", 5, "'plan_file' must be a string or null, got 5"),
            ("params", 5, "'params' must be an object, got 5"),
            ("benchmark", 5, "'benchmark' must be a string, got 5"),
            ("seed", "1", "'seed' must be an integer, got \"1\""),
            ("index", True, "'index' must be an integer, got true"),
        ],
        ids=["id", "domain-file", "problem-file", "plan-file", "params", "benchmark", "seed",
             "index-bool"],
    )
    def test_field_of_wrong_type_refused(self, dataset_dir, tmp_path, capsys, key, value, reason):
        """Every field a manifest entry reads is checked against its JSON
        type; at one time ``"plan_file": 5`` ended ``run`` in a TypeError and
        ``"params": 5`` ended ``obfuscate`` in one."""
        manifest = tmp_path / "manifest.jsonl"
        lines = []
        for line in (dataset_dir / "manifest.jsonl").read_text().splitlines():
            raw = json.loads(line)
            for field in ("domain_file", "problem_file", "plan_file"):
                raw[field] = str(dataset_dir / raw[field])
            lines.append(raw)
        lines[1][key] = value
        manifest.write_text("".join(json.dumps(raw) + "\n" for raw in lines))
        records = tmp_path / "records.jsonl"
        commands = [
            ["run", "--manifest", str(manifest), "--records", str(records)],
            ["score", "--records", str(records), "--manifest", str(manifest)],
            ["report", "--records", str(records), "--manifest", str(manifest),
             "--out-dir", str(tmp_path / "report")],
            ["obfuscate", "--manifest", str(manifest), "--out", str(tmp_path / "obf")],
        ]
        for argv in commands:
            records.write_text("")
            assert cli.main(argv) == 2, argv[0]
            assert capsys.readouterr().err == f"error: {manifest} line 2: {reason}\n", argv[0]
        assert records.read_text() == ""
        assert not (tmp_path / "report").exists() and not (tmp_path / "obf").exists()

    def test_plan_file_null_or_empty_is_no_plan(self, dataset_dir, tmp_path):
        raws = [json.loads(line) for line in (dataset_dir / "manifest.jsonl").read_text().splitlines()]
        for raw in raws:
            for field in ("domain_file", "problem_file", "plan_file"):
                raw[field] = str(dataset_dir / raw[field])
        raws[0]["plan_file"], raws[1]["plan_file"] = None, ""
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("".join(json.dumps(raw) + "\n" for raw in raws))
        assert list(load_dataset(manifest).plans) == [raw["id"] for raw in raws[2:]]


class TestGoldenPlansReadOnlyWhereUsed:
    """``score`` and ``report`` read no plan file, and ``run`` reads them only
    for the mock planner."""

    def test_score_and_report_read_no_plan_file(self, dataset_dir, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        argv = ["run", "--manifest", str(dataset_dir / "manifest.jsonl"), "--records", str(records)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        manifest = str(dataset_dir / "manifest.jsonl")
        assert cli.main(["score", "--records", str(records), "--manifest", manifest]) == 0
        scored = capsys.readouterr().out
        copy = tmp_path / "copy"
        copy.mkdir()
        for path in dataset_dir.iterdir():
            text = "not a plan\n" if path.suffix == ".plan" else path.read_text()
            (copy / path.name).write_text(text)
        manifest = str(copy / "manifest.jsonl")
        assert cli.main(["score", "--records", str(records), "--manifest", manifest]) == 0
        assert capsys.readouterr().out == scored
        assert cli.main(["report", "--records", str(records), "--manifest", manifest,
                         "--out-dir", str(tmp_path / "report")]) == 0
        # the mock planner replays the golden plans, so its run reads them
        assert cli.main(["run", "--manifest", manifest, "--records", str(tmp_path / "r2.jsonl")]) == 1


@pytest.mark.parametrize("command", ["generate", "obfuscate", "report"])
def test_output_path_that_is_a_file_exits_2(command, dataset_dir, tmp_path, capsys):
    manifest = str(dataset_dir / "manifest.jsonl")
    records = tmp_path / "r.jsonl"
    assert cli.main(["run", "--manifest", manifest, "--records", str(records), "--k", "1"]) == 0
    capsys.readouterr()
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    argv = {
        "generate": ["generate", "--benchmark", "blocksworld", "--blocks", "3", "--seed", "1",
                     "--count", "1", "--out", str(taken)],
        "obfuscate": ["obfuscate", "--manifest", manifest, "--out", str(taken)],
        "report": ["report", "--records", str(records), "--manifest", manifest,
                   "--out-dir", str(taken)],
    }[command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize(
    "command,flag", [("score", "--records"), ("score", "--manifest"), ("solve", "--domain"),
                     ("solve", "--problem"), ("run", "--manifest"), ("run", "--config"),
                     # a file that the manifest lists, named in place of a flag
                     ("score", "domain.pddl"), ("score", "blocksworld-7-0000.pddl"),
                     ("score", "blocksworld-7-0000.plan"), ("run", "blocksworld-7-0001.pddl"),
                     ("obfuscate", "domain.pddl")],
)
def test_output_over_an_input_exits_2(command, flag, dataset_dir, tmp_path, capsys):
    """No command writes its output over a file it reads, nor over a file
    that a manifest it reads lists: it exits 2 before writing, and every
    input is left as it was.  The manifest and the config end without a
    newline, which a resumed run would cut as a torn record.  ``obfuscate``
    reads a manifest that lists its files from another directory, and its
    ``--out`` is theirs."""
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    manifest, records, config = data / "manifest.jsonl", data / "records.jsonl", data / "k1.json"
    assert cli.main(["run", "--manifest", str(manifest), "--records", str(records), "--k", "1"]) == 0
    capsys.readouterr()
    manifest.write_text(manifest.read_text().rstrip("\n"))
    config.write_text('{"k": 1}')
    elsewhere = tmp_path / "elsewhere" / "manifest.jsonl"
    elsewhere.parent.mkdir()
    elsewhere.write_text("".join(
        json.dumps({**entry, "domain_file": f"../data/{entry['domain_file']}",
                    "problem_file": f"../data/{entry['problem_file']}", "plan_file": None}) + "\n"
        for entry in map(json.loads, manifest.read_text().splitlines())
    ))
    inputs = {
        "score": {"--records": records, "--manifest": manifest},
        "solve": {"--domain": data / "domain.pddl", "--problem": data / "blocksworld-7-0000.pddl"},
        "run": {"--manifest": manifest, "--config": config},
        "obfuscate": {"--manifest": elsewhere},
    }[command]
    before = tree_digest(data)
    out_flag = "--records" if command == "run" else "--out"
    if command == "obfuscate":  # the directory of the files the manifest lists
        out = f"{data}/../{data.name}"
        writes = f"--out {out} would write {flag} over"
    else:  # the same file by another spelling
        out = f"{data}/../{data.name}/{inputs[flag].name if flag in inputs else flag}"
        writes = f"{out_flag} {out} would overwrite"
    argv = [command, *(arg for item in inputs.items() for arg in map(str, item)), out_flag, out]
    assert cli.main(argv) == 2
    what = flag if flag in inputs else "a file that --manifest lists"
    assert capsys.readouterr().err == f"error: {writes} {what}\n"
    assert tree_digest(data) == before



@pytest.mark.parametrize("named_by", ["--pool", "--config"])
@pytest.mark.parametrize("target", ["manifest.jsonl", "blocksworld-7-0002.plan"])
def test_records_over_the_pool_exits_2(named_by, target, dataset_dir, tmp_path, capsys):
    """A run's few-shot pool is an input whether ``--pool`` or ``--config``
    names it: ``--records`` over its manifest, or over a file it lists, exits
    2 and leaves the pool as it was."""
    pool = tmp_path / "pool"
    shutil.copytree(dataset_dir, pool)
    pool_manifest = pool / "manifest.jsonl"
    flags, name = ["--shots", "1", "--pool", str(pool_manifest)], "--pool"
    if named_by == "--config":
        config = tmp_path / "shots.json"
        config.write_text(json.dumps({"shots": 1, "pool_manifest": str(pool_manifest)}))
        flags, name = ["--config", str(config)], f"the manifest {pool_manifest}"
    before = tree_digest(pool)
    records = pool / target
    argv = ["run", "--manifest", str(dataset_dir / "manifest.jsonl"), "--records", str(records)]
    assert cli.main([*argv, *flags]) == 2
    what = name if target == "manifest.jsonl" else f"a file that {name} lists"
    assert capsys.readouterr().err == f"error: --records {records} would overwrite {what}\n"
    assert tree_digest(pool) == before


def test_every_path_argument_has_a_role():
    """Every option that takes free text takes a path, and states its role
    as its parser type, which is what ``_refuse_overwrite`` reads."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    roles = set()
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.option_strings and action.nargs != 0 and action.choices is None \
                    and action.type not in (int, float):
                assert isinstance(action.type, cli.PathRole), (command, action.option_strings)
                roles.add(action.type)
    assert roles == set(cli.PathRole)


def test_pddl_error_in_a_dataset_file_names_it(dataset_dir, tmp_path, capsys):
    """A PDDL error in one file of a dataset names that file; it still exits 1."""
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    manifest, records = str(data / "manifest.jsonl"), str(tmp_path / "r.jsonl")
    assert cli.main(["run", "--manifest", manifest, "--records", records, "--k", "1"]) == 0
    capsys.readouterr()
    broken = data / "blocksworld-7-0001.pddl"
    broken.write_text(broken.read_text() + ")\n")
    assert cli.main(["score", "--records", records, "--manifest", manifest]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {broken}: ") and err.count("\n") == 1, err


# one fault per file: a text in it, what replaces the text, and the error
_FAULTS = {
    "domain": (":strips", ":adl", "requirement :adl is not supported (line 2, column 1)"),
    "problem": ("(handempty)", "(foo b1)", "undeclared predicate 'foo' in :init (line 6, column 2)"),
    "plan": ("(pick-up b1)", "(jump b1)", "unknown action 'jump' (line 11, column 1)"),
}


@pytest.mark.parametrize(
    "command,bad",
    [("validate", "domain"), ("validate", "problem"), ("validate", "plan"),
     ("solve", "domain"), ("solve", "problem")],
)
def test_pddl_error_in_a_named_file_names_it(command, bad, fixture_files, tmp_path, capsys):
    """``validate`` reads three PDDL files and ``solve`` two: an error names
    the one it is in, and still exits 1."""
    files = {"domain": fixture_files["domain"], "problem": fixture_files["problem"],
             "plan": fixture_files["wrong"]}
    old, new, message = _FAULTS[bad]
    broken = tmp_path / files[bad].name
    text = files[bad].read_text()
    assert text.count(old) == 1
    broken.write_text(text.replace(old, new))
    files[bad] = broken
    argv = [command, "--domain", str(files["domain"]), "--problem", str(files["problem"])]
    if command == "validate":
        argv += ["--plan", str(files["plan"])]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {broken}: {message}\n"


@pytest.mark.parametrize(
    "fmt,flag,name",
    [("table-text", "--records", "report.txt"), ("csv", "--records", "summary.txt"),
     ("csv", "--manifest", "steps.csv"), ("structured", "--manifest", "metrics.json")],
)
def test_report_file_over_an_input_exits_2(fmt, flag, name, dataset_dir, tmp_path, capsys):
    """``report`` writes none of its format's files over an input: each file
    is checked before scoring, and every input is left as it was."""
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    inputs = {"--records": data / "records.jsonl", "--manifest": data / "manifest.jsonl"}
    run = ["run", "--manifest", str(inputs["--manifest"]), "--records", str(inputs["--records"])]
    assert cli.main([*run, "--k", "1"]) == 0
    capsys.readouterr()
    inputs[flag] = inputs[flag].rename(data / name)
    before = tree_digest(data)
    out_dir = f"{data}/../{data.name}"  # the input's directory by another spelling
    argv = ["report", *(arg for item in inputs.items() for arg in map(str, item)),
            "--format", fmt, "--out-dir", out_dir]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: --out-dir {out_dir} would write {name} over {flag}\n"
    assert tree_digest(data) == before

LONG_NAME = "x" * 300  # longer than a file name may be


@pytest.mark.parametrize(
    "argv,message",
    [
        (["generate", "--benchmark", "blocksworld", "--blocks", "3", "--seed", "1", "--count", "1",
          "--out", "{tmp}/" + LONG_NAME], "[Errno 36] File name too long: "),
        (["validate", "--domain", "{tmp}/" + LONG_NAME, "--problem", "{tmp}/p.pddl",
          "--plan", "{tmp}/p.plan"], "[Errno 36] File name too long: "),
        (["validate", "--domain", "{tmp}/missing.pddl", "--problem", "{tmp}/p.pddl",
          "--plan", "{tmp}/p.plan"], "[Errno 2] No such file or directory: '{tmp}/missing.pddl'"),
    ],
    ids=["generate-long-out", "validate-long-domain", "validate-missing"],
)
def test_file_system_error_exits_2(argv, message, tmp_path, capsys):
    """A path the system refuses, or a missing input, is one ``error:`` line
    and exit 2, in the system's wording, whichever command meets it."""
    assert cli.main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.format(tmp=tmp_path)), err
    assert err.count("\n") == 1 and "Traceback" not in err


class TestArgparseBehavior:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def logistics_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("lg")
    assert cli.main(
        ["generate", "--benchmark", "logistics", "--preset", "easy", "--seed", "3",
         "--count", "1", "--out", str(out), "--solve"]
    ) == 0
    return out


@pytest.fixture(scope="module")
def mixed_manifest(dataset_dir, logistics_dir, tmp_path_factory):
    """A manifest whose entries point at a blocksworld and a logistics dataset."""
    root = tmp_path_factory.mktemp("mixed")
    lines = []
    for base in (dataset_dir, logistics_dir):
        for line in (base / "manifest.jsonl").read_text().splitlines():
            raw = json.loads(line)
            for key in ("domain_file", "problem_file", "plan_file"):
                raw[key] = str(base / raw[key])
            lines.append(json.dumps(raw))
    manifest = root / "mixed" / "manifest.jsonl"
    manifest.parent.mkdir()
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


class TestMixedDomains:
    def test_run_refuses_before_running(self, mixed_manifest, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        code = cli.main(["run", "--manifest", str(mixed_manifest), "--records", str(records)])
        assert code == 2
        assert "mixes domains" in capsys.readouterr().err
        assert not records.exists()

    def test_other_commands_exit_2(self, mixed_manifest, dataset_dir, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        assert cli.main(
            ["run", "--manifest", str(dataset_dir / "manifest.jsonl"), "--records", str(records)]
        ) == 0
        commands = [
            ["obfuscate", "--manifest", str(mixed_manifest), "--out", str(tmp_path / "obf")],
            ["score", "--records", str(records), "--manifest", str(mixed_manifest)],
            ["report", "--records", str(records), "--manifest", str(mixed_manifest),
             "--out-dir", str(tmp_path / "report")],
        ]
        capsys.readouterr()
        for args in commands:
            assert cli.main(args) == 2, args[0]
            assert "mixes domains" in capsys.readouterr().err


def _modules_loaded(argv: list[str], cwd: Path) -> set[str]:
    """The modules that ``import plancritic.cli``, then ``main(argv)`` when
    ``argv`` is not empty, load in a fresh interpreter; ``main`` must succeed."""
    # only what the program adds: a site hook may load a package at start-up
    code = (
        "import sys; before = set(sys.modules); import plancritic.cli\n"
        "code = plancritic.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(*sorted(set(sys.modules) - before)); sys.exit(code)"
    )
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, *argv], env={**os.environ, "PYTHONPATH": path},
        cwd=cwd, capture_output=True, text=True, check=True,
    )
    return set(result.stdout.splitlines()[-1].split())


LOOP_AND_HTTP = {
    "plancritic.orchestrator", "plancritic.critics", "plancritic.llm", "plancritic.prompting",
    "http.client", "ssl", "concurrent.futures",
}


def test_cli_imports_no_third_party_module(tmp_path):
    """Neither the import nor a ``generate --solve``, ``solve`` or
    ``obfuscate`` run loads a third-party module, the validator, the scorer,
    ``logging``, or any module of the refinement loop and its HTTP client;
    ``validate`` loads the validator and still none of the others."""
    generate = ["generate", "--benchmark", "blocksworld", "--blocks", "3", "--seed", "1",
                "--count", "2", "--out", "ds", "--solve"]
    solve = ["solve", "--domain", "ds/domain.pddl", "--problem", "ds/blocksworld-1-0000.pddl"]
    obfuscate = ["obfuscate", "--manifest", "ds/manifest.jsonl", "--out", "obf"]
    forbidden = LOOP_AND_HTTP | {"plancritic.report", "plancritic.semantics", "logging"}
    for argv in ([], generate, solve, obfuscate):
        loaded = _modules_loaded(argv, tmp_path)
        packages = {m.partition(".")[0] for m in loaded}
        assert "plancritic.cli" in loaded
        assert not packages & {"requests", "urllib3", "certifi", "charset_normalizer", "idna"}
        assert not loaded & forbidden, argv
    assert (tmp_path / "ds" / "blocksworld-1-0001.plan").is_file()
    assert (tmp_path / "obf" / "manifest.jsonl").is_file()
    validate = ["validate", "--domain", "ds/domain.pddl",
                "--problem", "ds/blocksworld-1-0000.pddl", "--plan", "ds/blocksworld-1-0000.plan"]
    loaded = _modules_loaded(validate, tmp_path)
    assert "plancritic.semantics" in loaded
    assert not loaded & (LOOP_AND_HTTP | {"plancritic.report", "logging"})


def test_scoring_loads_no_loop_module(dataset_dir, tmp_path):
    """``score`` and ``report`` read records and score them without any
    module of the refinement loop or its HTTP client."""
    manifest, records = str(dataset_dir / "manifest.jsonl"), str(tmp_path / "r.jsonl")
    assert cli.main(["run", "--manifest", manifest, "--records", records, "--k", "1"]) == 0
    for argv in (["score", "--records", records, "--manifest", manifest],
                 ["report", "--records", records, "--manifest", manifest, "--out-dir", "out"]):
        loaded = _modules_loaded(argv, tmp_path)
        assert "plancritic.report" in loaded
        assert not loaded & LOOP_AND_HTTP, argv
    assert (tmp_path / "out" / "report.txt").is_file()


class TestPackageNames:
    """``plancritic`` reads its public names from their submodules on first
    access."""

    def test_every_name_is_the_submodules(self):
        for name in plancritic.__all__:
            value = getattr(plancritic, name)
            if name != "__version__":
                assert value is getattr(importlib.import_module(value.__module__), name), name

    def test_star_import(self):
        namespace = {}
        exec("from plancritic import *", namespace)
        assert set(plancritic.__all__) <= set(namespace)
        assert namespace["score"] is report.score

    def test_submodules_resolve(self):
        code = (
            "import sys, plancritic\n"
            "assert 'plancritic.report' not in sys.modules\n"
            "assert plancritic.report is sys.modules['plancritic.report']\n"
            "assert plancritic.search.bfs_plan is plancritic.bfs_plan\n"
        )
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": path})

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            getattr(plancritic, "no_such_name")

    def test_dir_lists_all(self):
        assert set(plancritic.__all__) <= set(dir(plancritic))


# ---------------------------------------------------------------------------
# every range a field's annotation states, read as the checker reads it


def _bounded_fields() -> list[tuple]:
    """(class, field, bound, nullable) for each bound of each dataclass that a
    module of the package defines."""
    found = []
    for info in pkgutil.iter_modules(plancritic.__path__):
        module = importlib.import_module(f"plancritic.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                found += [(cls, *bound) for bound in bounds(cls)]
    return found


BOUNDED = _bounded_fields()

# the sizes of a valid spec of each benchmark, at the low end of every range
_SIZES = {
    Benchmark.BLOCKSWORLD: {"blocks": 3},
    Benchmark.LOGISTICS: {"cities": 1, "places_per_city": 1, "packages": 0, "trucks": 0,
                          "airplanes": 0},
    Benchmark.MINIGRID: {"grid_width": 1, "grid_height": 1, "keys": 0},
}


def _valid(cls, name) -> dict:
    """Keyword arguments of a valid ``cls`` in which ``name`` has a say."""
    if cls is GenSpec:
        family = next((b for b, names in SIZE_FIELDS.items() if name in names),
                      Benchmark.BLOCKSWORLD)
        return {"benchmark": family.value, "seed": 1, "count": 1, **_SIZES[family]}
    if cls is report.IterationEntry:
        return {"step": 0, "plan": "", "critic_label": CritiqueLabel.WRONG,
                "votes": {CritiqueLabel.WRONG: 1}, "plan_prompt_chars": 0,
                "critique_prompt_chars": 0}
    if cls is report.RunRecord:  # one round, proposing nothing, on the first fixture problem
        return {"problem_id": "blocksworld-7-0000", "max_steps": 0, "self_consistency": 1,
                "iterations": (report.IterationEntry(**_valid(report.IterationEntry, "")),),
                "final_plan": "", "stop_reason": report.StopReason.ITERATIONS_EXHAUSTED,
                "llm_calls": 2, "ground_truth": UNPLANNED_TRUTH}
    return {}


def _edges(bound, kind) -> tuple[list, list]:
    """(the values at ``bound``, the values one step past it) of a field of
    type ``kind``; NaN is past every float bound."""
    def step(x, towards):
        return x + (1 if towards > x else -1) if kind is int else math.nextafter(x, towards)

    low = kind(bound.low)
    if isinstance(bound, Above):
        inside, outside = [step(low, math.inf)], [low]
    else:
        inside, outside = [low], [step(low, -math.inf)]
    if bound.high < math.inf:
        inside.append(kind(bound.high))
        outside.append(step(kind(bound.high), math.inf))
    return inside, outside + [math.nan] * (kind is float)


def _subcommand_flags(command: str) -> dict[str, str]:
    """{dest: option} of each flag of ``command``."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest: a.option_strings[0] for a in sub.choices[command]._actions if a.option_strings}


_SECTIONS = {"": LoopConfig, "planner": PlannerConfig, "critic": CriticConfig}


def _argvs(cls, name, value, paths, tmp_path) -> list[tuple[list[str], Path, str]]:
    """(argv, the output it must not create, the name its error line gives
    the value) of each command whose flag, ``--config`` key or records line
    sets ``name`` of ``cls`` to ``value``."""
    argvs = []
    records = tmp_path / "r.jsonl"
    run = ["run", "--manifest", paths["manifest"], "--records", str(records)]
    for section, config_class in _SECTIONS.items():
        if cls is config_class:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({section: {name: value}} if section else {name: value}))
            argvs.append((run + ["--config", str(config)], records, name))
    for flag, (_, keys) in cli.RUN_FLAGS.items():
        for key in keys.split():
            section, _, field = key.rpartition(".")
            if field == name and cls is _SECTIONS.get(section):
                argvs.append((run + [f"{flag}={value}"], records, name))
    generate = _subcommand_flags("generate")
    out = tmp_path / "out"
    if cls is GenSpec:
        values = {**_valid(cls, name), name: value}
        argvs.append((["generate", "--out", str(out)]
                      + [f"{generate[dest]}={v}" for dest, v in values.items()], out,
                      generate[name]))
    if cls is SearchLimits:
        argvs.append((["generate", "--benchmark", "blocksworld", "--blocks", "3", "--seed", "1",
                       "--count", "1", "--out", str(out), "--solve",
                       f"{generate[name]}={value}"], out, generate[name]))
        solve = _subcommand_flags("solve")
        argvs.append((["solve", "--domain", paths["domain"], "--problem", paths["problem"],
                       "--out", str(out), f"{solve[name]}={value}"], out, solve[name]))
    if cls in (report.RunRecord, report.IterationEntry):
        record = report.record_to_dict(report.RunRecord(**_valid(report.RunRecord, name)))
        (record if cls is report.RunRecord else record["iterations"][0])[name] = value
        records.write_text(json.dumps(record) + "\n")
        argvs.append((["score", "--records", str(records), "--manifest", paths["manifest"],
                       "--out", str(out)], out, name))
    return argvs


@pytest.mark.parametrize("cls,name,bound,nullable", BOUNDED,
                         ids=[f"{cls.__name__}.{name}" for cls, name, *_ in BOUNDED])
def test_every_bound_holds_and_is_refused_by_every_command(
    cls, name, bound, nullable, dataset_dir, fixture_files, tmp_path, capsys
):
    """At its bound a field's value constructs; one step past it, or NaN for
    a float, raises OutOfRange naming the field, and each run, generate or
    solve flag, each ``--config`` key and each records line that sets the
    field exits 2 with that one line, leaving no output behind; a generate or
    solve line names the flag in place of the field."""
    hint = typing.get_type_hints(cls)[name]
    kind = float if float in (hint, *typing.get_args(hint)) else int
    inside, outside = _edges(bound, kind)
    valid = _valid(cls, name)
    for value in inside:
        assert getattr(cls(**{**valid, name: value}), name) == value
    if nullable:
        try:
            cls(**{**valid, name: None})
        except InvalidSpec as exc:  # GenSpec's presence rule, not a range
            assert " needs " in str(exc)
    paths = {"manifest": str(dataset_dir / "manifest.jsonl"),
             "domain": str(fixture_files["domain"]), "problem": str(fixture_files["problem"])}
    for value in outside:
        rule = f"must be {bound}, got {str(value).removesuffix('.0')}"
        with pytest.raises(OutOfRange) as exc:
            cls(**{**valid, name: value})
        assert str(exc.value) == f"{name} {rule}"
        for argv, output, shown in _argvs(cls, name, value, paths, tmp_path):
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.endswith(f"{shown} {rule}\n"), err
            assert err.count("\n") == 1, err
            assert not output.exists(), argv


def test_every_flag_bound_is_reached(tmp_path):
    """The bound test above reaches the command line by every route: a
    generate size, a search limit, a run flag, and a ``--config`` key of the
    top level and of a section."""
    paths = {"manifest": "m", "domain": "d", "problem": "p"}
    reached = {(cls.__name__, name) for cls, name, bound, _ in BOUNDED
               if _argvs(cls, name, bound.low, paths, tmp_path)}
    assert reached >= {("GenSpec", "count"), ("GenSpec", "blocks"),
                       ("SearchLimits", "max_expanded"), ("LoopConfig", "k"),
                       ("CriticConfig", "self_consistency"), ("PlannerConfig", "timeout"),
                       ("RunRecord", "max_steps"), ("IterationEntry", "plan_prompt_chars")}
