"""Seeded benchmark instance generation and name obfuscation.

Three instance families are supported:

* blocksworld: random tower configurations over ``bi`` blocks; goals are
  non-empty partial ``on`` sets that are not already satisfied.
* logistics: untyped STRIPS logistics (trucks within cities, airplanes
  between airports, one airport per city).  Each city gets its own truck so
  every delivery goal is reachable.
* minigrid: rooms on a grid joined by the edges of a random spanning tree.
  Some edges on the start-to-target path may be locked; each lock's key is
  placed on the start side of its door, so instances are always solvable.

Instances are a pure function of (spec, seed, index): instance ``i`` of a
run is identical no matter how many instances are requested.

Obfuscation consistently renames predicates, actions, and optionally objects
and domain/problem names across a domain, its problems, and plans.  The
"deceptive" mode ships the fixed blocksworld-to-mystery wordlist; the
"nonspecific" mode numbers every name (``predicate-1``, ``action-1``, ...).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Annotated, Mapping

from . import domains
from .jsonform import AtLeast, Between, check_bounds, from_json, read_lines
from .pddl import (
    Atom,
    DomainDef,
    GroundAction,
    Plan,
    Predicate,
    ActionSchema,
    Literal,
    PddlError,
    ProblemDef,
    parse_domain,
    parse_plan,
    parse_problem,
    print_domain,
    print_plan,
    print_problem,
)


class Benchmark(str, Enum):
    BLOCKSWORLD = "blocksworld"
    LOGISTICS = "logistics"
    MINIGRID = "minigrid"


# the GenSpec size fields each benchmark reads
SIZE_FIELDS = {
    Benchmark.BLOCKSWORLD: ("blocks",),
    Benchmark.LOGISTICS: ("cities", "places_per_city", "packages", "trucks", "airplanes"),
    Benchmark.MINIGRID: ("grid_width", "grid_height", "keys"),
}


class InvalidSpec(ValueError):
    """A spec that breaks a joint rule: ``rule`` is its words, and ``fields``
    the size fields it names after them, if any."""

    def __init__(self, rule: str, *fields: str):
        super().__init__(" ".join([rule, ", ".join(fields)]) if fields else rule)
        self.rule, self.fields = rule, fields


@dataclass(frozen=True)
class GenSpec:
    benchmark: Benchmark
    seed: int
    count: Annotated[int, AtLeast(1)]
    # blocksworld
    blocks: Annotated[int | None, Between(2, 20)] = None
    # logistics
    cities: Annotated[int | None, AtLeast(1)] = None
    places_per_city: Annotated[int | None, AtLeast(1)] = None
    packages: Annotated[int | None, AtLeast(0)] = None
    trucks: Annotated[int | None, AtLeast(0)] = None
    airplanes: Annotated[int | None, AtLeast(0)] = None
    # minigrid
    grid_width: Annotated[int | None, AtLeast(1)] = None
    grid_height: Annotated[int | None, AtLeast(1)] = None
    keys: Annotated[int | None, AtLeast(0)] = None  # 0 for minigrid when not given

    def __post_init__(self):
        object.__setattr__(self, "benchmark", Benchmark(self.benchmark))
        check_bounds(self)
        b = self.benchmark
        foreign = [name for other, names in SIZE_FIELDS.items() if other is not b
                   for name in names if getattr(self, name) is not None]
        if foreign:
            raise InvalidSpec(f"{b.value} takes no", *foreign)
        if b is Benchmark.MINIGRID and self.keys is None:
            object.__setattr__(self, "keys", 0)
        missing = [name for name in SIZE_FIELDS[b] if getattr(self, name) is None]
        if missing:
            raise InvalidSpec(f"{b.value} needs", *missing)
        if b is Benchmark.LOGISTICS:
            if self.trucks < self.cities and self.places_per_city > 1:
                raise InvalidSpec("logistics needs one truck per city to stay solvable")
            if self.airplanes < 1 and self.cities > 1:
                raise InvalidSpec("multi-city logistics needs an airplane")
            if self.packages > 0 and self.cities * self.places_per_city < 2:
                raise InvalidSpec("deliveries need at least two places")

    @classmethod
    def blocksworld(cls, blocks: int, seed: int, count: int) -> "GenSpec":
        return cls(Benchmark.BLOCKSWORLD, seed, count, blocks=blocks)

    @classmethod
    def logistics_easy(cls, seed: int, count: int) -> "GenSpec":
        # four places and two packages
        return cls(
            Benchmark.LOGISTICS, seed, count,
            cities=2, places_per_city=2, packages=2, trucks=2, airplanes=1,
        )

    @classmethod
    def logistics_hard(cls, seed: int, count: int) -> "GenSpec":
        # 4 cities, 2 places per city, 8 packages
        return cls(
            Benchmark.LOGISTICS, seed, count,
            cities=4, places_per_city=2, packages=8, trucks=4, airplanes=2,
        )

    @classmethod
    def minigrid(cls, width: int, height: int, keys: int, seed: int, count: int) -> "GenSpec":
        return cls(Benchmark.MINIGRID, seed, count, grid_width=width, grid_height=height, keys=keys)

    def params(self) -> dict:  # the benchmark's sizes, each of which the spec holds
        return {name: getattr(self, name) for name in SIZE_FIELDS[self.benchmark]}


def _rng_for(spec: GenSpec, index: int) -> random.Random:
    return random.Random(f"{spec.benchmark.value}:{spec.seed}:{index}")


# ---------------------------------------------------------------------------
# Blocksworld


def _sample_towers(rng: random.Random, blocks: list[str]) -> dict[str, str | None]:
    """Place each block on the table or on a uniformly chosen clear block."""
    order = list(blocks)
    rng.shuffle(order)
    support: dict[str, str | None] = {}
    clear: list[str] = []
    for block in order:
        choice = rng.choice([None] + clear)
        support[block] = choice
        if choice is not None:
            clear.remove(choice)
        clear.append(block)
    return support


def _blocksworld_instance(spec: GenSpec, index: int) -> ProblemDef:
    rng = _rng_for(spec, index)
    blocks = [f"b{i}" for i in range(1, spec.blocks + 1)]
    support = _sample_towers(rng, blocks)

    init: set[Atom] = {Atom("handempty")}
    supported = set()
    for block, under in support.items():
        if under is None:
            init.add(Atom("ontable", (block,)))
        else:
            init.add(Atom("on", (block, under)))
            supported.add(under)
    for block in blocks:
        if block not in supported:
            init.add(Atom("clear", (block,)))

    for _ in range(10_000):
        goal_support = _sample_towers(rng, blocks)
        ons = [(b, u) for b, u in goal_support.items() if u is not None]
        if not ons:
            continue
        chosen = rng.sample(ons, rng.randint(1, len(ons)))
        goal = tuple(Atom("on", pair) for pair in chosen)
        if not all(atom in init for atom in goal):
            break
    else:  # pragma: no cover - would need a pathological rng
        raise RuntimeError("could not sample an unsatisfied goal")

    objects = list(blocks)
    rng.shuffle(objects)
    return ProblemDef(
        name=f"BW-rand-{spec.blocks}",
        domain_name="blocksworld-4ops",
        objects=tuple(objects),
        init=frozenset(init),
        goal=goal,
    )


# ---------------------------------------------------------------------------
# Logistics


def _logistics_instance(spec: GenSpec, index: int) -> ProblemDef:
    rng = _rng_for(spec, index)
    cities = [f"c{i}" for i in range(1, spec.cities + 1)]
    airports = {c: f"a{i}" for i, c in enumerate(cities, start=1)}
    places: dict[str, list[str]] = {}
    for i, c in enumerate(cities, start=1):
        places[c] = [airports[c]] + [f"l{i}-{j}" for j in range(1, spec.places_per_city)]
    all_places = [p for c in cities for p in places[c]]
    trucks = [f"t{i}" for i in range(1, spec.trucks + 1)]
    airplanes = [f"pl{i}" for i in range(1, spec.airplanes + 1)]
    packages = [f"pkg{i}" for i in range(1, spec.packages + 1)]

    init: set[Atom] = set()
    for c in cities:
        init.add(Atom("city", (c,)))
        init.add(Atom("airport", (airports[c],)))
        for p in places[c]:
            init.add(Atom("location", (p,)))
            init.add(Atom("in-city", (p, c)))
    for i, t in enumerate(trucks):
        home = cities[i % len(cities)]
        init.add(Atom("truck", (t,)))
        init.add(Atom("at", (t, rng.choice(places[home]))))
    for a in airplanes:
        init.add(Atom("airplane", (a,)))
        init.add(Atom("at", (a, airports[rng.choice(cities)])))
    starts = {}
    for p in packages:
        init.add(Atom("package", (p,)))
        starts[p] = rng.choice(all_places)
        init.add(Atom("at", (p, starts[p])))

    goal = tuple(
        Atom("at", (p, rng.choice([loc for loc in all_places if loc != starts[p]])))
        for p in packages
    )
    return ProblemDef(
        name=f"LG-rand-{index}",
        domain_name="logistics-strips",
        objects=tuple(cities + sorted(airports.values()) + [p for c in cities for p in places[c] if p not in airports.values()] + trucks + airplanes + packages),
        init=frozenset(init),
        goal=goal,
    )


# ---------------------------------------------------------------------------
# Minigrid


def _tree_path(tree: dict, start, target) -> list:
    """Rooms from start to target along the spanning tree."""
    prev = {start: None}
    queue = deque([start])
    while queue:
        room = queue.popleft()
        if room == target:
            break
        for nxt in tree[room]:
            if nxt not in prev:
                prev[nxt] = room
                queue.append(nxt)
    path = [target]
    while path[-1] != start:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def _start_side(tree: dict, start, edge: tuple) -> list:
    """Rooms reachable from start without crossing ``edge``."""
    a, b = edge
    seen = {start}
    queue = deque([start])
    while queue:
        room = queue.popleft()
        for nxt in tree[room]:
            if {room, nxt} == {a, b}:
                continue
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return sorted(seen)


def _minigrid_instance(spec: GenSpec, index: int) -> ProblemDef:
    rng = _rng_for(spec, index)
    width, height = spec.grid_width, spec.grid_height
    cells = [(x, y) for y in range(height) for x in range(width)]
    room = {cell: f"room-{cell[0]}-{cell[1]}" for cell in cells}

    # random spanning tree over the grid (randomized Prim)
    tree: dict[tuple, list[tuple]] = {cell: [] for cell in cells}
    tree_edges: list[tuple[tuple, tuple]] = []
    if len(cells) > 1:
        in_tree = {rng.choice(cells)}
        while len(in_tree) < len(cells):
            frontier = []
            for cell in sorted(in_tree):
                x, y = cell
                for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if nxt in tree and nxt not in in_tree:
                        frontier.append((cell, nxt))
            a, b = rng.choice(frontier)
            in_tree.add(b)
            tree[a].append(b)
            tree[b].append(a)
            tree_edges.append((a, b))

    start = rng.choice(cells)
    target = rng.choice([c for c in cells if c != start]) if len(cells) > 1 else start

    path = _tree_path(tree, start, target)
    path_edges = list(zip(path, path[1:]))
    n_locks = min(spec.keys, len(path_edges))
    locked_idx = sorted(rng.sample(range(len(path_edges)), n_locks))

    keys = [f"key{i}" for i in range(1, spec.keys + 1)]
    key_rooms: dict[str, tuple] = {}
    locked: dict[tuple[tuple, tuple], str] = {}
    for key, edge_idx in zip(keys, locked_idx):
        edge = path_edges[edge_idx]
        locked[edge] = key
        key_rooms[key] = rng.choice(_start_side(tree, start, edge))
    for key in keys[n_locks:]:
        key_rooms[key] = rng.choice(sorted(cells))

    init: set[Atom] = {Atom("arm-free"), Atom("robot-at", (room[start],))}
    for cell in cells:
        init.add(Atom("room", (room[cell],)))
    for key in keys:
        init.add(Atom("key", (key,)))
        init.add(Atom("key-at", (key, room[key_rooms[key]])))
    for a, b in tree_edges:
        edge = next((e for e in ((a, b), (b, a)) if e in locked), None)
        if edge is None:
            init.add(Atom("connected", (room[a], room[b])))
            init.add(Atom("connected", (room[b], room[a])))
        else:
            key = locked[edge]
            init.add(Atom("locked", (room[a], room[b], key)))
            init.add(Atom("locked", (room[b], room[a], key)))

    return ProblemDef(
        name=f"MG-rand-{index}",
        domain_name="minigrid-strips",
        objects=tuple([room[c] for c in cells] + keys),
        init=frozenset(init),
        goal=(Atom("robot-at", (room[target],)),),
    )


_GENERATORS = {
    Benchmark.BLOCKSWORLD: (_blocksworld_instance, domains.blocksworld_domain),
    Benchmark.LOGISTICS: (_logistics_instance, domains.logistics_domain),
    Benchmark.MINIGRID: (_minigrid_instance, domains.minigrid_domain),
}


def generate(spec: GenSpec) -> tuple[DomainDef, list[ProblemDef]]:
    """Generate instances plus the domain they belong to."""
    instance, dom = _GENERATORS[spec.benchmark]
    return dom(), [instance(spec, i) for i in range(spec.count)]


# ---------------------------------------------------------------------------
# Obfuscation


class ObfuscationMode(str, Enum):
    DECEPTIVE = "deceptive"
    NONSPECIFIC = "nonspecific"
    IDENTITY = "identity"


class IncompleteMap(ValueError):
    pass


class CollidingMap(ValueError):
    pass


class UnreadableMap(ValueError):
    """A rename whose text the reader refuses, such as ``not`` or a name with a blank."""


@dataclass(frozen=True)
class ObfuscationMap:
    """Bijective renaming tables.

    ``predicates`` and ``actions`` must cover every name the domain declares.
    ``objects`` may be partial; unlisted objects keep their names.  Domain and
    problem names are renamed through the corresponding tables when present.
    """

    predicates: Mapping[str, str]
    actions: Mapping[str, str]
    objects: Mapping[str, str] = field(default_factory=dict)
    domain_names: Mapping[str, str] = field(default_factory=dict)
    problem_names: Mapping[str, str] = field(default_factory=dict)
    mode: ObfuscationMode = ObfuscationMode.IDENTITY  # names the renaming in the manifest

    def __post_init__(self):
        object.__setattr__(self, "mode", ObfuscationMode(self.mode))
        for table in dataclasses.fields(self)[:-1]:
            object.__setattr__(self, table.name, dict(getattr(self, table.name)))


DECEPTIVE_PREDICATES = {
    "clear": "province",
    "ontable": "planet",
    "handempty": "harmony",
    "holding": "pain",
    "on": "craves",
}
DECEPTIVE_ACTIONS = {
    "pick-up": "attack",
    "put-down": "succumb",
    "stack": "overcome",
    "unstack": "feast",
}


def deceptive_map(problem_names: Mapping[str, str] | None = None) -> ObfuscationMap:
    """The fixed blocksworld-to-mystery wordlist; objects keep their names."""
    return ObfuscationMap(
        mode=ObfuscationMode.DECEPTIVE,
        predicates=dict(DECEPTIVE_PREDICATES),
        actions=dict(DECEPTIVE_ACTIONS),
        domain_names={"blocksworld-4ops": "mystery-4ops"},
        problem_names=dict(problem_names or {}),
    )


def nonspecific_map(domain: DomainDef) -> ObfuscationMap:
    return ObfuscationMap(
        mode=ObfuscationMode.NONSPECIFIC,
        predicates={p.name: f"predicate-{i}" for i, p in enumerate(domain.predicates, start=1)},
        actions={a.name: f"action-{i}" for i, a in enumerate(domain.actions, start=1)},
        domain_names={domain.name: "nonspecific-domain"},
    )


def identity_map(domain: DomainDef) -> ObfuscationMap:
    return ObfuscationMap(
        mode=ObfuscationMode.IDENTITY,
        predicates={p.name: p.name for p in domain.predicates},
        actions={a.name: a.name for a in domain.actions},
    )


def _check_map(domain: DomainDef, mapping: ObfuscationMap) -> None:
    missing = [p.name for p in domain.predicates if p.name not in mapping.predicates]
    missing += [a.name for a in domain.actions if a.name not in mapping.actions]
    if missing:
        raise IncompleteMap("map is missing renames for: " + ", ".join(missing))
    for label, table in (("predicate", mapping.predicates), ("action", mapping.actions), ("object", mapping.objects)):
        values = list(table.values())
        if len(values) != len(set(values)):
            raise CollidingMap(f"{label} renames collide")


def _rename_atom(atom: Atom, mapping: ObfuscationMap) -> Atom:
    return Atom(
        mapping.predicates[atom.pred],
        tuple(mapping.objects.get(a, a) for a in atom.args),
    )


def obfuscate(
    domain: DomainDef,
    problems: list[ProblemDef],
    plans: list[Plan] | None,
    mapping: ObfuscationMap,
) -> tuple[DomainDef, list[ProblemDef], list[Plan] | None]:
    """Consistently rename a domain and everything that refers to it.

    ``plans`` may be None, and then None is returned in their place."""
    _check_map(domain, mapping)

    def rename_schema_atom(atom: Atom) -> Atom:
        # schema atoms carry variables, which are never renamed
        return Atom(mapping.predicates[atom.pred], atom.args)

    new_domain = DomainDef(
        name=mapping.domain_names.get(domain.name, domain.name),
        requirements=domain.requirements,
        predicates=tuple(Predicate(mapping.predicates[p.name], p.params) for p in domain.predicates),
        actions=tuple(
            ActionSchema(
                name=mapping.actions[s.name],
                parameters=s.parameters,
                precondition=tuple(rename_schema_atom(a) for a in s.precondition),
                effects=tuple(
                    Literal(rename_schema_atom(lit.atom), lit.positive) for lit in s.effects
                ),
            )
            for s in domain.actions
        ),
    )

    new_problems = []
    for problem in problems:
        renamed_objects = tuple(mapping.objects.get(o, o) for o in problem.objects)
        if len(set(renamed_objects)) != len(renamed_objects):
            raise CollidingMap(f"object renames collide in problem {problem.name}")
        new_problems.append(
            ProblemDef(
                name=mapping.problem_names.get(problem.name, problem.name),
                domain_name=mapping.domain_names.get(problem.domain_name, problem.domain_name),
                objects=renamed_objects,
                init=frozenset(_rename_atom(a, mapping) for a in problem.init),
                goal=tuple(_rename_atom(a, mapping) for a in problem.goal),
            )
        )

    new_plans = None
    if plans is not None:
        for plan in plans:
            for step in plan.steps:
                if step.name not in mapping.actions:
                    raise IncompleteMap(f"map is missing a rename for action {step.name!r}")
        new_plans = [
            Plan(
                tuple(
                    GroundAction(
                        mapping.actions[step.name],
                        tuple(mapping.objects.get(a, a) for a in step.args),
                    )
                    for step in plan.steps
                )
            )
            for plan in plans
        ]
    return new_domain, new_problems, new_plans


# ---------------------------------------------------------------------------
# Dataset files and manifests


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    domain_file: Path
    problem_file: Path
    benchmark: str = ""
    seed: int = 0
    index: int = 0
    params: dict = field(default_factory=dict)
    plan_file: Path | None = None


def write_dataset(
    out_dir: str | Path,
    domain: DomainDef,
    problems: list[ProblemDef],
    spec: GenSpec,
    plans: list[Plan | None] | None = None,
) -> Path:
    """Write ``domain.pddl``, one problem file per instance, optional plan
    files, and a ``manifest.jsonl`` listing them.  Returns the manifest path.
    """
    plans = plans if plans is not None else [None] * len(problems)
    entries = []
    bench = spec.benchmark.value
    for index in range(len(problems)):
        stem = f"{bench}-{spec.seed}-{index:04d}"
        entries.append(ManifestEntry(
            id=stem, domain_file=Path("domain.pddl"), problem_file=Path(f"{stem}.pddl"),
            benchmark=bench, seed=spec.seed, index=index, params=spec.params(),
            plan_file=None if plans[index] is None else Path(f"{stem}.plan"),
        ))
    return _write_files(
        out_dir, entries, print_domain(domain), [print_problem(p) for p in problems],
        [None if plan is None else print_plan(plan) for plan in plans],
    )


def _write_files(
    out_dir: str | Path, entries: list[ManifestEntry], domain_text: str,
    problem_texts: list[str], plan_texts: list[str | None]
) -> Path:
    """Write the printed domain to ``domain.pddl``, each entry's problem text
    and plan text (when it names a plan file) under the entry's file names,
    and ``manifest.jsonl`` with one line per entry.  The files in ``out_dir``
    that a manifest there listed and the new one does not are deleted; a
    manifest there that does not load raises DatasetError before anything is
    written.  Returns the manifest path."""
    out = Path(out_dir)
    manifest = out / "manifest.jsonl"
    old = load_manifest(manifest) if manifest.exists() else []
    stale = {path for entry in old for path in (entry.problem_file, entry.plan_file)
             if path is not None and path.parent == out}
    out.mkdir(parents=True, exist_ok=True)
    (out / "domain.pddl").write_text(domain_text + "\n")
    lines = []
    for entry, problem_text, plan_text in zip(entries, problem_texts, plan_texts):
        # vars, not dataclasses.asdict, which would deep-copy params
        record = dict(vars(entry), domain_file="domain.pddl", problem_file=entry.problem_file.name)
        (out / entry.problem_file.name).write_text(problem_text + "\n")
        stale.discard(out / entry.problem_file.name)
        if entry.plan_file is None:
            del record["plan_file"]
        else:
            record["plan_file"] = entry.plan_file.name
            (out / entry.plan_file.name).write_text(plan_text + "\n" if plan_text else "")
            stale.discard(out / entry.plan_file.name)
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    manifest.write_text("".join(lines))
    for path in stale - {manifest, out / "domain.pddl"}:
        if path.is_file():
            path.unlink()
    return manifest


def load_manifest(path: str | Path) -> list[ManifestEntry]:
    """The entries of a manifest, their files relative to its directory;
    DatasetError names a line that is not JSON or not a ``ManifestEntry``."""
    path = Path(path)
    read = functools.partial(from_json, ManifestEntry, base=path.parent)
    return read_lines(path.read_text(), path, read, DatasetError)


def parse_file(parse, path: Path, *args):
    """``parse`` of the text of ``path``; a PddlError names the file."""
    try:
        return parse(path.read_text(), *args)
    except PddlError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _load_instance(
    entry: ManifestEntry, domain: DomainDef, with_plan: bool = True
) -> tuple[ProblemDef, Plan | None]:
    problem = parse_file(parse_problem, entry.problem_file, domain)
    if entry.plan_file is None or not with_plan:
        return problem, None
    return problem, parse_file(parse_plan, entry.plan_file, domain)


def load_entry(entry: ManifestEntry) -> tuple[DomainDef, ProblemDef, Plan | None]:
    domain = parse_file(parse_domain, entry.domain_file)
    return (domain, *_load_instance(entry, domain))


class DatasetError(ValueError):
    """An input file that cannot be loaded: a manifest that is not one dataset
    (a malformed line, empty, mixing domains, or listing an id twice), or a
    records line that is not a record (``report.MalformedRecord``)."""


@dataclass(frozen=True)
class Dataset:
    """A loaded manifest: its entries, their one domain, and problems and
    golden plans by entry id (``plans`` only holds entries with a plan file),
    and the manifest's path (None for a dataset built in memory)."""

    entries: tuple[ManifestEntry, ...]
    domain: DomainDef
    problems: Mapping[str, ProblemDef]
    plans: Mapping[str, Plan]
    manifest: Path | None = None


def load_dataset(manifest: str | Path, with_plans: bool = True) -> Dataset:
    """Load a manifest, parsing each distinct domain file once; raises
    DatasetError when it is empty, its entries resolve to different domains,
    or it lists an id twice.  With ``with_plans`` false no plan file is read
    and the dataset's ``plans`` is empty, for callers that use no golden plan.
    A PddlError from a domain, problem or plan file names that file."""
    entries = tuple(load_manifest(manifest))
    if not entries:
        raise DatasetError(f"empty manifest: {manifest}")
    files = dict.fromkeys(entry.domain_file for entry in entries)
    domain, *others = (parse_file(parse_domain, path) for path in files)
    if any(other != domain for other in others):
        raise DatasetError(f"manifest mixes domains: {manifest}")
    problems, plans = {}, {}
    for entry in entries:
        if entry.id in problems:
            raise DatasetError(f"manifest lists id {entry.id} twice: {manifest}")
        problems[entry.id], plan = _load_instance(entry, domain, with_plans)
        if plan is not None:
            plans[entry.id] = plan
    return Dataset(entries, domain, problems, plans, Path(manifest))


def obfuscate_dataset(dataset: Dataset, mapping: ObfuscationMap, out_dir: str | Path) -> Path:
    """Write ``dataset`` renamed by ``mapping`` to ``out_dir``, keeping its
    entry ids and file names.  Returns the manifest path."""
    entries = [
        dataclasses.replace(e, params={**e.params, "obfuscation": mapping.mode.value})
        for e in dataset.entries
    ]
    domain, problems, plans = obfuscate(
        dataset.domain,
        [dataset.problems[e.id] for e in entries],
        [dataset.plans.get(e.id, Plan(())) for e in entries],
        mapping,
    )
    return _write_files(out_dir, entries, *_read_back(domain, problems, plans))


def _read_back(
    domain: DomainDef, problems: list[ProblemDef], plans: list[Plan]
) -> tuple[str, list[str], list[str]]:
    """The printed domain, problems and plans of a renamed dataset; raises
    UnreadableMap unless each text reads back, so that no dataset is written
    that no reader accepts."""
    name = "domain"
    domain_text, problem_texts, plan_texts = print_domain(domain), [], []
    try:
        read = parse_domain(domain_text)
        for problem, plan in zip(problems, plans):
            name = f"problem {problem.name}"
            problem_texts.append(print_problem(problem))
            parse_problem(problem_texts[-1], read)
            name = f"plan of {problem.name}"
            plan_texts.append(print_plan(plan))
            parse_plan(plan_texts[-1], read)
    except PddlError as exc:
        raise UnreadableMap(f"the renamed {name} does not read back: {exc}") from None
    return domain_text, problem_texts, plan_texts
