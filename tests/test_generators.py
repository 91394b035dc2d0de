import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plancritic.domains import blocksworld_domain
from plancritic.generators import (
    DECEPTIVE_ACTIONS,
    DECEPTIVE_PREDICATES,
    Benchmark,
    CollidingMap,
    DatasetError,
    GenSpec,
    IncompleteMap,
    InvalidSpec,
    ObfuscationMap,
    ObfuscationMode,
    deceptive_map,
    generate,
    identity_map,
    load_dataset,
    load_entry,
    load_manifest,
    nonspecific_map,
    obfuscate,
    obfuscate_dataset,
    write_dataset,
)
from plancritic.jsonform import OutOfRange
from plancritic.pddl import Atom, print_domain, print_plan, print_problem
from plancritic.search import SearchLimits, SearchStatus, bfs_plan
from plancritic.semantics import WrongAtStep, validate_plan

from .helpers import inverse_map, mystery_domain, tree_digest


class TestGenSpec:
    @pytest.mark.parametrize("blocks", [1, 0, 21, -3])
    def test_blocks_out_of_range(self, blocks):
        with pytest.raises(OutOfRange, match=f"^blocks must be between 2 and 20, got {blocks}$"):
            GenSpec.blocksworld(blocks=blocks, seed=0, count=1)

    def test_blocks_range_boundaries(self):
        GenSpec.blocksworld(blocks=2, seed=0, count=1)
        GenSpec.blocksworld(blocks=20, seed=0, count=1)

    def test_negative_count_rejected(self):
        with pytest.raises(OutOfRange, match="^count must be at least 1, got -1$"):
            GenSpec.blocksworld(blocks=3, seed=0, count=-1)

    def test_zero_count_refused(self):
        """A dataset of no problems is one that every reader refuses."""
        with pytest.raises(OutOfRange, match="^count must be at least 1, got 0$"):
            GenSpec.blocksworld(blocks=3, seed=0, count=0)

    def test_logistics_needs_sizes(self):
        with pytest.raises(OutOfRange, match="^cities must be at least 1, got 0$"):
            GenSpec(Benchmark.LOGISTICS, 0, 1, cities=0, places_per_city=1,
                    packages=1, trucks=1, airplanes=1)
        with pytest.raises(InvalidSpec, match="^logistics needs trucks, airplanes$"):
            GenSpec(Benchmark.LOGISTICS, 0, 1, cities=1, places_per_city=1, packages=1)

    def test_minigrid_sizes(self):
        with pytest.raises(OutOfRange, match="^grid_width must be at least 1, got 0$"):
            GenSpec.minigrid(width=0, height=2, keys=0, seed=0, count=1)
        with pytest.raises(OutOfRange, match="^keys must be at least 0, got -1$"):
            GenSpec.minigrid(width=2, height=2, keys=-1, seed=0, count=1)
        with pytest.raises(InvalidSpec, match="^minigrid needs grid_height$"):
            GenSpec(Benchmark.MINIGRID, 0, 1, grid_width=2)

    def test_minigrid_keys_default_to_zero(self):
        spec = GenSpec(Benchmark.MINIGRID, 0, 1, grid_width=3, grid_height=3)
        assert spec == GenSpec.minigrid(width=3, height=3, keys=0, seed=0, count=1)
        assert spec.params() == {"grid_width": 3, "grid_height": 3, "keys": 0}

    @pytest.mark.parametrize(
        "family,sizes",
        [(Benchmark.BLOCKSWORLD, {"blocks": 3, "cities": 2}),
         (Benchmark.BLOCKSWORLD, {"blocks": 3, "keys": 0}),
         (Benchmark.MINIGRID, {"grid_width": 3, "grid_height": 3, "blocks": 3}),
         (Benchmark.LOGISTICS, {"cities": 1, "places_per_city": 2, "packages": 1, "trucks": 1,
                                "airplanes": 0, "grid_width": 2})],
    )
    def test_size_of_another_benchmark_refused(self, family, sizes):
        with pytest.raises(InvalidSpec, match=f"{family.value} takes no"):
            GenSpec(family, 0, 1, **sizes)

    def test_presets(self):
        easy = GenSpec.logistics_easy(seed=0, count=1)
        assert (easy.cities, easy.places_per_city, easy.packages) == (2, 2, 2)
        hard = GenSpec.logistics_hard(seed=0, count=1)
        assert (hard.cities, hard.places_per_city, hard.packages) == (4, 2, 8)


class TestBlocksworldInstances:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        blocks=st.integers(min_value=2, max_value=6),
    )
    def test_construction_invariants(self, seed, blocks):
        _, problems = generate(GenSpec.blocksworld(blocks=blocks, seed=seed, count=1))
        problem = problems[0]
        assert problem.name == f"BW-rand-{blocks}"
        assert sorted(problem.objects) == [f"b{i}" for i in range(1, blocks + 1)]

        init = problem.init
        n_on = sum(1 for a in init if a.pred == "on")
        n_table = sum(1 for a in init if a.pred == "ontable")
        n_clear = sum(1 for a in init if a.pred == "clear")
        assert sum(1 for a in init if a.pred == "handempty") == 1
        assert n_on + n_table == blocks  # every block rests on exactly one thing
        assert n_clear == blocks - n_on  # clear iff nothing on top
        supported = {a.args[1] for a in init if a.pred == "on"}
        for a in init:
            if a.pred == "clear":
                assert a.args[0] not in supported

        assert problem.goal, "goal must not be empty"
        assert all(a.pred == "on" for a in problem.goal)
        assert not all(a in init for a in problem.goal), "goal must not hold initially"

    def test_deterministic(self):
        spec = GenSpec.blocksworld(blocks=5, seed=123, count=4)
        _, first = generate(spec)
        _, second = generate(spec)
        assert first == second

    def test_different_seeds_differ(self):
        _, a = generate(GenSpec.blocksworld(blocks=5, seed=1, count=3))
        _, b = generate(GenSpec.blocksworld(blocks=5, seed=2, count=3))
        assert a != b

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5_000))
    def test_solvable(self, seed):
        domain, problems = generate(GenSpec.blocksworld(blocks=4, seed=seed, count=1))
        result = bfs_plan(domain, problems[0], SearchLimits(200_000, 60))
        assert result.status is SearchStatus.FOUND


class TestLogisticsInstances:
    def test_easy_preset_shape(self):
        domain, problems = generate(GenSpec.logistics_easy(seed=5, count=2))
        assert domain.name == "logistics-strips"
        for problem in problems:
            init = problem.init
            assert sum(1 for a in init if a.pred == "city") == 2
            assert sum(1 for a in init if a.pred == "airport") == 2
            assert sum(1 for a in init if a.pred == "location") == 4
            assert sum(1 for a in init if a.pred == "in-city") == 4
            assert sum(1 for a in init if a.pred == "package") == 2
            # every goal sends a package somewhere it does not start
            starts = {a.args[0]: a.args[1] for a in init if a.pred == "at"}
            for goal in problem.goal:
                assert goal.pred == "at"
                assert starts[goal.args[0]] != goal.args[1]

    def test_trucks_cover_every_city(self):
        _, problems = generate(GenSpec.logistics_easy(seed=9, count=1))
        problem = problems[0]
        in_city = {a.args[0]: a.args[1] for a in problem.init if a.pred == "in-city"}
        truck_anchors = {
            in_city[a.args[1]]
            for a in problem.init
            if a.pred == "at" and a.args[0].startswith("t")
        }
        cities = {a.args[0] for a in problem.init if a.pred == "city"}
        assert truck_anchors == cities

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2_000))
    def test_easy_solvable(self, seed):
        domain, problems = generate(GenSpec.logistics_easy(seed=seed, count=1))
        result = bfs_plan(domain, problems[0], SearchLimits(500_000, 40))
        assert result.status is SearchStatus.FOUND


class TestMinigridInstances:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        width=st.integers(min_value=1, max_value=3),
        height=st.integers(min_value=1, max_value=3),
        keys=st.integers(min_value=0, max_value=2),
    )
    def test_construction_invariants(self, seed, width, height, keys):
        _, problems = generate(GenSpec.minigrid(width, height, keys, seed, 1))
        problem = problems[0]
        init = problem.init
        n_rooms = width * height
        assert sum(1 for a in init if a.pred == "room") == n_rooms
        assert sum(1 for a in init if a.pred == "robot-at") == 1
        assert Atom("arm-free") in init
        assert sum(1 for a in init if a.pred == "key") == keys
        assert sum(1 for a in init if a.pred == "key-at") == keys
        # spanning tree: every edge yields a symmetric connected or locked pair
        n_connected = sum(1 for a in init if a.pred == "connected")
        n_locked = sum(1 for a in init if a.pred == "locked")
        assert n_connected % 2 == 0 and n_locked % 2 == 0
        assert n_connected // 2 + n_locked // 2 == n_rooms - 1
        assert n_locked // 2 <= keys

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2_000))
    def test_solvable_with_locks(self, seed):
        domain, problems = generate(GenSpec.minigrid(3, 2, 2, seed, 1))
        result = bfs_plan(domain, problems[0], SearchLimits(500_000, 60))
        assert result.status is SearchStatus.FOUND


class TestObfuscation:
    def test_deceptive_reproduces_mystery(self, bw_domain):
        renamed, _, _ = obfuscate(bw_domain, [], None, deceptive_map())
        assert renamed == mystery_domain()
        assert print_domain(renamed) == print_domain(mystery_domain())

    def test_problem_and_plan_renaming(self, bw_domain, bw5_problem, wrong_plan):
        mapping = deceptive_map(problem_names={"BW-rand-5": "MY-rand-5"})
        domain, problems, plans = obfuscate(bw_domain, [bw5_problem], [wrong_plan], mapping)
        problem = problems[0]
        assert problem.name == "MY-rand-5"
        assert problem.domain_name == "mystery-4ops"
        assert Atom("craves", ("b5", "b2")) in problem.init
        assert Atom("harmony") in problem.init
        assert plans[0].steps[0].name == "feast"
        # the verdict carries over exactly
        verdict = validate_plan(problem, plans[0], domain).verdict
        assert verdict == WrongAtStep(9, (Atom("province", ("b2",)),))

    def test_identity_is_noop(self, bw_domain, bw5_problem):
        domain, problems, _ = obfuscate(bw_domain, [bw5_problem], None, identity_map(bw_domain))
        assert domain == bw_domain
        assert problems[0] == bw5_problem

    def test_nonspecific_names(self, bw_domain):
        domain, _, _ = obfuscate(bw_domain, [], None, nonspecific_map(bw_domain))
        assert domain.name == "nonspecific-domain"
        assert {p.name for p in domain.predicates} == {f"predicate-{i}" for i in range(1, 6)}
        assert {a.name for a in domain.actions} == {f"action-{i}" for i in range(1, 5)}

    def test_inverse_round_trip(self, bw_domain, bw5_problem, correct_plan):
        mapping = deceptive_map(problem_names={"BW-rand-5": "MY-rand-5"})
        forward = obfuscate(bw_domain, [bw5_problem], [correct_plan], mapping)
        back = obfuscate(forward[0], forward[1], forward[2], inverse_map(mapping))
        assert back[0] == bw_domain
        assert back[1][0] == bw5_problem
        assert back[2][0] == correct_plan

    def test_incomplete_map_rejected(self, bw_domain):
        mapping = ObfuscationMap(
            mode=ObfuscationMode.DECEPTIVE,
            predicates={"clear": "province"},
            actions={},
        )
        with pytest.raises(IncompleteMap):
            obfuscate(bw_domain, [], None, mapping)

    def test_colliding_values_rejected(self, bw_domain):
        mapping = ObfuscationMap(
            mode=ObfuscationMode.NONSPECIFIC,
            predicates={
                "clear": "x", "ontable": "x", "handempty": "y", "holding": "z", "on": "w",
            },
            actions={"pick-up": "a", "put-down": "b", "stack": "c", "unstack": "d"},
        )
        with pytest.raises(CollidingMap):
            obfuscate(bw_domain, [], None, mapping)

    def test_fields_are_coerced(self):
        mapping = ObfuscationMap(
            mode="deceptive", predicates=[("on", "craves")], actions={"stack": "overcome"}
        )
        assert mapping.mode is ObfuscationMode.DECEPTIVE
        assert mapping.predicates == {"on": "craves"}
        assert mapping.objects == {}
        with pytest.raises(ValueError):
            ObfuscationMap(mode="cryptic", predicates={}, actions={})

    def test_object_rename_collision_in_problem(self, bw_domain, bw5_problem):
        mapping = ObfuscationMap(
            mode=ObfuscationMode.IDENTITY,
            predicates={p.name: p.name for p in bw_domain.predicates},
            actions={a.name: a.name for a in bw_domain.actions},
            objects={"b1": "b2"},  # b2 already exists in the problem
        )
        with pytest.raises(CollidingMap):
            obfuscate(bw_domain, [bw5_problem], None, mapping)


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        spec = GenSpec.blocksworld(blocks=4, seed=7, count=3)
        domain, problems = generate(spec)
        plans = [bfs_plan(domain, p, SearchLimits(200_000, 60)).plan for p in problems]
        manifest = write_dataset(tmp_path / "ds", domain, problems, spec, plans)
        entries = load_manifest(manifest)
        assert [e.id for e in entries] == [f"blocksworld-7-{i:04d}" for i in range(3)]
        for entry, problem, plan in zip(entries, problems, plans):
            got_domain, got_problem, got_plan = load_entry(entry)
            assert got_domain == domain
            assert got_problem == problem
            assert got_plan == plan

    def test_without_plans(self, tmp_path):
        spec = GenSpec.blocksworld(blocks=3, seed=1, count=2)
        domain, problems = generate(spec)
        manifest = write_dataset(tmp_path / "ds", domain, problems, spec)
        entries = load_manifest(manifest)
        assert all(e.plan_file is None for e in entries)
        assert load_entry(entries[0])[2] is None

    @pytest.mark.parametrize("with_plans", [True, False])
    def test_manifest_line_holds_every_entry_field(self, tmp_path, with_plans):
        spec = GenSpec.blocksworld(blocks=3, seed=5, count=3)
        domain, problems = generate(spec)
        plans = [bfs_plan(domain, p).plan for p in problems] if with_plans else None
        manifest = write_dataset(tmp_path / "ds", domain, problems, spec, plans)
        expected = []
        for entry in load_manifest(manifest):
            # every field of the entry, with its files named relative to the manifest
            record = dataclasses.asdict(entry)
            record.update(domain_file="domain.pddl", problem_file=entry.problem_file.name)
            if entry.plan_file is None:
                del record["plan_file"]
            else:
                record["plan_file"] = entry.plan_file.name
            expected.append(json.dumps(record, sort_keys=True) + "\n")
        assert manifest.read_text() == "".join(expected)

    def test_byte_stable(self, tmp_path):
        spec = GenSpec.blocksworld(blocks=4, seed=99, count=2)
        domain, problems = generate(spec)
        m1 = write_dataset(tmp_path / "a", domain, problems, spec)
        m2 = write_dataset(tmp_path / "b", domain, problems, spec)
        for name in [p.name for p in m1.parent.iterdir()]:
            assert (m1.parent / name).read_bytes() == (m2.parent / name).read_bytes()


class TestLoadDataset:
    @pytest.fixture()
    def manifest(self, tmp_path):
        spec = GenSpec.blocksworld(blocks=3, seed=5, count=3)
        domain, problems = generate(spec)
        plans = [bfs_plan(domain, p, SearchLimits()).plan for p in problems]
        plans[1] = None
        return write_dataset(tmp_path / "ds", domain, problems, spec, plans)

    def test_matches_load_entry(self, manifest):
        dataset = load_dataset(manifest)
        entries = load_manifest(manifest)
        assert dataset.entries == tuple(entries)
        for entry in entries:
            domain, problem, plan = load_entry(entry)
            assert dataset.domain == domain
            assert dataset.problems[entry.id] == problem
            assert dataset.plans.get(entry.id) == plan
        assert entries[1].id not in dataset.plans

    def test_parses_the_domain_once(self, manifest, monkeypatch):
        from plancritic import generators

        calls = []
        original = generators.parse_domain
        monkeypatch.setattr(generators, "parse_domain", lambda text: calls.append(1) or original(text))
        load_dataset(manifest)
        assert len(calls) == 1

    def test_rejects_mixed_domains(self, manifest):
        other = manifest.parent / "other.pddl"
        other.write_text(print_domain(generate(GenSpec.logistics_easy(1, 1))[0]) + "\n")
        lines = manifest.read_text().splitlines()
        lines[0] = lines[0].replace('"domain.pddl"', '"other.pddl"')
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="mixes domains"):
            load_dataset(manifest)

    def test_rejects_duplicate_ids(self, manifest):
        first = manifest.read_text().splitlines()[0]
        manifest.write_text(first + "\n" + first + "\n")
        entry_id = load_manifest(manifest)[0].id
        with pytest.raises(DatasetError, match=f"id {entry_id} twice"):
            load_dataset(manifest)

    def test_obfuscate_with_string_mode(self, manifest, tmp_path):
        dataset = load_dataset(manifest)
        fields = {"predicates": dict(DECEPTIVE_PREDICATES), "actions": dict(DECEPTIVE_ACTIONS)}
        by_string = obfuscate_dataset(
            dataset, ObfuscationMap(mode="deceptive", **fields), tmp_path / "a"
        )
        by_enum = obfuscate_dataset(
            dataset, ObfuscationMap(mode=ObfuscationMode.DECEPTIVE, **fields), tmp_path / "b"
        )
        assert tree_digest(by_string.parent) == tree_digest(by_enum.parent)
        assert '"obfuscation": "deceptive"' in by_string.read_text()

    def test_rejects_empty_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("")
        with pytest.raises(DatasetError, match="empty"):
            load_dataset(manifest)
