import ast
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plancritic
from plancritic import cli, search
from plancritic.generators import GenSpec, generate
from plancritic.pddl import GroundAction, Plan, parse_domain, parse_plan, parse_problem
from plancritic.search import (
    ExecutionOutcome,
    SearchLimits,
    SearchResult,
    SearchStatus,
    _applicable,
    _make_op,
    _reachable_ops,
    _grounding,
    _static_predicates,
    bfs_plan,
    ground_actions,
    run_plan,
)
from plancritic.semantics import validate_plan

from .helpers import apply, is_applicable

THREE_BLOCKS = """\
(define (problem three)
(:domain blocksworld-4ops)
(:objects a b c)
(:init (on c a) (ontable a) (ontable b) (clear c) (clear b) (handempty))
(:goal (and (on a b) (on b c)))
)
"""


def reference_shortest_length(domain, problem, max_depth=30):
    """Independent breadth-first search written directly over the semantics
    module, used to cross-check bfs_plan's optimality."""
    start = problem.init
    if all(atom in start for atom in problem.goal):
        return 0
    actions = ground_actions(domain, problem)
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        state, depth = frontier.popleft()
        if depth >= max_depth:
            continue
        for action in actions:
            if not is_applicable(state, action, domain)[0]:
                continue
            nxt = apply(state, action, domain)
            if nxt in seen:
                continue
            if all(atom in nxt for atom in problem.goal):
                return depth + 1
            seen.add(nxt)
            frontier.append((nxt, depth + 1))
    return None


class TestGrounding:
    def test_three_block_count_and_order(self, bw_domain):
        problem = parse_problem(THREE_BLOCKS, bw_domain)
        actions = ground_actions(bw_domain, problem)
        assert len(actions) == 24  # 3 + 3 + 9 + 9
        # schemas in declaration order, argument tuples in lexicographic order
        assert actions[:3] == [
            GroundAction("pick-up", ("a",)),
            GroundAction("pick-up", ("b",)),
            GroundAction("pick-up", ("c",)),
        ]
        assert actions[6:8] == [
            GroundAction("stack", ("a", "a")),
            GroundAction("stack", ("a", "b")),
        ]

    def test_grounding_allows_repeated_arguments(self, bw_domain):
        # a schema's parameters may name the same object, as in the validator
        problem = parse_problem(THREE_BLOCKS, bw_domain)
        actions = ground_actions(bw_domain, problem)
        assert GroundAction("stack", ("a", "a")) in actions


def reference_ops(domain, problem):
    """Brute-force grounding: every argument tuple, then the static-in-init
    filter."""
    static = _static_predicates(domain)
    ops = [_make_op(domain, action) for action in ground_actions(domain, problem)]
    return [op for op in ops if all(a in problem.init for a in op.pre if a.pred in static)]


def relaxed_reachable(ops, init):
    """The indexes of the ``ops`` that a naive delete-relaxed fixpoint from
    ``init`` fires."""
    reached = set(init)
    fired: set[int] = set()
    changed = True
    while changed:
        changed = False
        for i, op in enumerate(ops):
            if i not in fired and all(a in reached for a in op.pre):
                fired.add(i)
                reached |= op.adds
                changed = True
    return fired


def as_keys(op):
    """A _make_op operator as (action, pre, adds, dels) sets of (pred, args)."""
    def keys(atoms):
        return frozenset((atom.pred, atom.args) for atom in atoms)

    return (op.action, keys(op.pre), keys(op.adds), keys(op.dels))


def decoded(task):
    """The steps of a _reachable_ops task in as_keys's form, each mask read
    back through the task's atom table."""
    atom_of = {bit: atom for atom, bit in task.bits.items()}

    def atoms(mask):
        return frozenset(atom for bit, atom in atom_of.items() if mask >> bit & 1)

    return [(action, atoms(pre), atoms(adds), atoms(~keep)) for pre, keep, adds, action in task.steps]


GROUNDING_SPECS = [
    GenSpec.logistics_easy(seed=3, count=2),
    GenSpec.minigrid(3, 3, 2, seed=3, count=3),
    GenSpec.blocksworld(blocks=4, seed=3, count=3),
]


def scanned(steps, state):
    """The indexes of the steps applicable in ``state``, by testing each."""
    return [i for i, (pre, _, _, _) in enumerate(steps) if state & pre == pre]


def looked_up(task, state):
    """The indexes of the steps the byte tables find applicable in ``state``,
    lowest first, the order bfs_plan applies them in."""
    ops = _applicable(task.tables, (1 << len(task.steps)) - 1, state)
    return [i for i in range(ops.bit_length()) if ops >> i & 1]


def expanded_states(monkeypatch, domain, problem):
    """Every state bfs_plan looks up applicable steps for, in order."""
    states = []
    lookup = search._applicable

    def record(tables, every, state):
        states.append(state)
        return lookup(tables, every, state)

    with monkeypatch.context() as patch:
        patch.setattr(search, "_applicable", record)
        assert bfs_plan(domain, problem).status is SearchStatus.FOUND
    return states


class TestJoinGrounding:
    @pytest.mark.parametrize("spec", GROUNDING_SPECS, ids=lambda s: s.benchmark.value)
    def test_equals_brute_force_reference(self, spec):
        domain, problems = generate(spec)
        for problem in problems:
            ops = decoded(_reachable_ops(domain, problem))
            assert ops == [as_keys(op) for op in reference_ops(domain, problem)]

    # blocksworld is left out: the relaxed pass drops none of its steps
    @pytest.mark.parametrize("spec", GROUNDING_SPECS[:2], ids=lambda s: s.benchmark.value)
    def test_relaxed_unreachable_steps_never_apply(self, spec, monkeypatch):
        # the search keeps the steps a delete-relaxed pass from :init drops;
        # none of them may apply in a state the search expands
        domain, problems = generate(spec)
        for problem in problems:
            task = _reachable_ops(domain, problem)
            fired = relaxed_reachable(reference_ops(domain, problem), problem.init)
            dropped = [step for i, step in enumerate(task.steps) if i not in fired]
            assert dropped
            for state in expanded_states(monkeypatch, domain, problem):
                assert not [step for step in dropped if state & step[0] == step[0]]


PAINT_DOMAIN = """\
(define (domain paint)
(:predicates (at ?x) (link ?x ?y) (mark ?x ?y) (lit) (flag ?x))
(:action paint
  :parameters (?x ?y)
  :precondition (and)
  :effect (mark ?x ?y))
(:action go
  :parameters (?x ?y)
  :precondition (and (at ?x) (link ?x ?y) (lit))
  :effect (and (not (at ?x)) (at ?y))))
"""


def paint_problem(domain, n):
    """Cells c1..cn in a ring, at c1 with the light on."""
    cells = [f"c{i}" for i in range(1, n + 1)]
    links = " ".join(f"(link {a} {b})" for a, b in zip(cells, cells[1:] + cells[:1]))
    return parse_problem(
        f"(define (problem ring) (:domain paint) (:objects {' '.join(cells)}) "
        f"(:init (at c1) (lit) (flag c1) {links}) (:goal (and (at c3) (flag c2))))",
        domain,
    )


class TestByteTables:
    """The byte-table lookup finds the steps a scan of every step finds, in
    the same order."""

    @pytest.mark.parametrize("spec", GROUNDING_SPECS, ids=lambda s: s.benchmark.value)
    def test_lookup_equals_scan_on_expanded_states(self, spec, monkeypatch):
        domain, problems = generate(spec)
        for problem in problems:
            task = _reachable_ops(domain, problem)
            states = expanded_states(monkeypatch, domain, problem)
            assert states
            for state in states:
                assert looked_up(task, state) == scanned(task.steps, state)

    @settings(max_examples=200, deadline=None)
    @given(objects=st.integers(min_value=4, max_value=6), state=st.integers(0, (1 << 80) - 1))
    def test_lookup_equals_scan_on_random_states(self, objects, state):
        domain = parse_domain(PAINT_DOMAIN)
        task = _reachable_ops(domain, paint_problem(domain, objects))
        # paint has an empty precondition; its n * n mark atoms come first
        # and no step needs them, so the low two bytes hold no precondition
        # bit; flag atoms are in :init and the goal only, above the table
        assert [step for step in task.steps if step[0] == 0]
        assert task.tables[0][0] >= 16
        assert (task.init | task.goal) >> len(task.bits)
        state &= (1 << len(task.bits) + 8) - 1
        assert looked_up(task, state) == scanned(task.steps, state)

    def test_no_tables_without_preconditions(self):
        domain = parse_domain(PAINT_DOMAIN)
        problem = parse_problem(
            "(define (problem bare) (:domain paint) (:objects c1 c2) (:init) "
            "(:goal (and (mark c2 c1))))",
            domain,
        )
        task = _reachable_ops(domain, problem)
        assert task.tables == ()
        assert looked_up(task, 0) == scanned(task.steps, 0) == [0, 1, 2, 3]
        result = bfs_plan(domain, problem)
        assert result.plan == Plan((GroundAction("paint", ("c2", "c1")),))


WALK_DOMAIN = """\
(define (domain walk)
(:predicates (at ?x) (adj ?x ?y) (visited ?x))
(:action move
  :parameters (?from ?to)
  :precondition (and (at ?from) (adj ?from ?to))
  :effect (and (not (at ?from)) (at ?to) (visited ?to))))
"""


def walk_problem(domain, adj, init="", goal="(at c4)"):
    """Cells c1..c4, start at c1; ``adj`` lists the one-way moves."""
    edges = " ".join(f"(adj {a} {b})" for a, b in adj)
    return parse_problem(
        f"(define (problem walk) (:domain walk) (:objects c1 c2 c3 c4) "
        f"(:init (at c1) {edges} {init}) (:goal (and {goal})))",
        domain,
    )


LINE = [("c1", "c2"), ("c2", "c3"), ("c3", "c4")]


class TestGroundingCache:
    """Grounding is shared by problems with equal domain, objects and static
    atoms; everything else about a problem stays per call."""

    def test_static_atoms_are_part_of_the_key(self):
        domain = parse_domain(WALK_DOMAIN)
        line = walk_problem(domain, LINE)
        shortcut = walk_problem(domain, LINE + [("c1", "c4")])

        def fresh(problem):
            _grounding.cache_clear()
            result = bfs_plan(domain, problem)
            return result.plan, result.expanded

        alone = {"line": fresh(line), "shortcut": fresh(shortcut)}
        assert len(alone["line"][0]) == 3 and len(alone["shortcut"][0]) == 1
        for order in (["line", "shortcut"], ["shortcut", "line"]):
            _grounding.cache_clear()
            for name in order:
                result = bfs_plan(domain, {"line": line, "shortcut": shortcut}[name])
                assert (result.plan, result.expanded) == alone[name]
            assert _grounding.cache_info().misses == 2

    def test_atoms_no_operator_mentions_leave_the_table_alone(self):
        domain = parse_domain(WALK_DOMAIN)
        # no move enters c1, so no operator mentions (visited c1)
        table = _reachable_ops(domain, walk_problem(domain, LINE)).bits
        size = len(table)
        misses = _grounding.cache_info().misses
        kept = walk_problem(domain, LINE, init="(visited c1)", goal="(at c4) (visited c1)")
        result = bfs_plan(domain, kept)
        assert result.status is SearchStatus.FOUND and len(result.plan) == 3
        unreachable = walk_problem(domain, LINE, goal="(at c4) (visited c1)")
        assert bfs_plan(domain, unreachable).status is SearchStatus.NO_PLAN
        assert _reachable_ops(domain, unreachable).bits is table
        assert len(table) == size
        assert _grounding.cache_info().misses == misses

    def test_one_grounding_per_family(self):
        domain, problems = generate(GenSpec.blocksworld(blocks=5, seed=1, count=20))
        _grounding.cache_clear()
        for problem in problems:
            assert bfs_plan(domain, problem).status is SearchStatus.FOUND
        assert _grounding.cache_info().misses == 1


TOUCH_DOMAIN = """\
(define (domain touch)
(:predicates (p ?x) (q ?x ?y))
(:action touch
  :parameters (?x ?y)
  :precondition (and (p ?x) (p ?y))
  :effect (q ?x ?y)))
"""

TOUCH_PROBLEM = """\
(define (problem touch-self)
(:domain touch)
(:objects a b)
(:init (p a) (p b))
(:goal (q a a)))
"""


class TestSoundNoPlan:
    """NO_PLAN must hold over every grounding the validator accepts."""

    def test_plan_repeating_an_argument_is_found(self):
        domain = parse_domain(TOUCH_DOMAIN)
        problem = parse_problem(TOUCH_PROBLEM, domain)
        result = bfs_plan(domain, problem)
        assert result.status is SearchStatus.FOUND
        assert result.plan == Plan((GroundAction("touch", ("a", "a")),))
        assert validate_plan(problem, result.plan, domain).is_correct

    def test_solve_prints_the_plan(self, tmp_path, capsys):
        (tmp_path / "domain.pddl").write_text(TOUCH_DOMAIN)
        (tmp_path / "problem.pddl").write_text(TOUCH_PROBLEM)
        code = cli.main(
            ["solve", "--domain", str(tmp_path / "domain.pddl"),
             "--problem", str(tmp_path / "problem.pddl")]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "(touch a a)"


# (expanded, plan length) of each instance, as the earlier search with
# frozenset states found them (blocksworld-5: as the search that tested every
# operator in each state found them); a change to the operator order or to
# the goal test moves these numbers
SEARCH_PINS = [
    (GenSpec.blocksworld(blocks=4, seed=7, count=8), [
        (7, 4), (16, 4), (4, 2), (63, 10), (109, 10), (56, 8), (18, 4), (8, 4),
    ]),
    (GenSpec.blocksworld(blocks=5, seed=7, count=8), [
        (47, 6), (2, 2), (18, 4), (2, 2), (66, 6), (241, 8), (227, 8), (3, 2),
    ]),
    (GenSpec.logistics_easy(seed=7, count=4), [(349, 16), (134, 9), (259, 11), (195, 10)]),
    (GenSpec.minigrid(3, 3, 2, seed=7, count=8), [
        (33, 9), (62, 11), (44, 11), (165, 11), (69, 9), (65, 11), (73, 10), (210, 16),
    ]),
]


@pytest.mark.parametrize(
    "spec,pins",
    SEARCH_PINS,
    ids=["blocksworld-4", "blocksworld-5", "logistics-easy", "minigrid-3x3-2keys"],
)
def test_expansions_and_plan_lengths_pinned(spec, pins):
    domain, problems = generate(spec)
    got = []
    for problem in problems:
        result = bfs_plan(domain, problem)
        assert result.status is SearchStatus.FOUND
        got.append((result.expanded, len(result.plan)))
    assert got == pins


class TestBfs:
    def test_six_step_example(self, bw_domain):
        problem = parse_problem(THREE_BLOCKS, bw_domain)
        result = bfs_plan(bw_domain, problem, SearchLimits(100_000, 30))
        assert result.status is SearchStatus.FOUND
        assert len(result.plan.steps) == 6
        assert validate_plan(problem, result.plan, bw_domain).is_correct
        # deterministic: the same plan comes back every time
        again = bfs_plan(bw_domain, problem, SearchLimits(100_000, 30))
        assert again.plan == result.plan

    def test_goal_already_satisfied(self, bw_domain):
        problem = parse_problem(
            "(define (problem p) (:domain blocksworld-4ops) (:objects a) "
            "(:init (ontable a) (clear a) (handempty)) (:goal (and (clear a))))",
            bw_domain,
        )
        result = bfs_plan(bw_domain, problem, SearchLimits(10, 10))
        assert result.status is SearchStatus.FOUND
        assert result.plan == Plan(())

    def test_no_plan(self, bw_domain):
        # two blocks can never both be on each other
        problem = parse_problem(
            "(define (problem p) (:domain blocksworld-4ops) (:objects a b) "
            "(:init (ontable a) (ontable b) (clear a) (clear b) (handempty)) "
            "(:goal (and (on a b) (on b a))))",
            bw_domain,
        )
        result = bfs_plan(bw_domain, problem, SearchLimits(100_000, 30))
        assert result.status is SearchStatus.NO_PLAN

    def test_counts_stay_out_of_equality(self, bw_domain):
        # two blocks reach 5 states; 2 + 2 + 4 + 4 ground operators
        problem = parse_problem(
            "(define (problem p) (:domain blocksworld-4ops) (:objects a b) "
            "(:init (ontable a) (ontable b) (clear a) (clear b) (handempty)) "
            "(:goal (and (on a b) (on b a))))",
            bw_domain,
        )
        result = bfs_plan(bw_domain, problem)
        assert (result.expanded, result.generated, result.operators) == (5, 4, 12)
        assert result == SearchResult(SearchStatus.NO_PLAN, None, 5, 0, 0)
        found = bfs_plan(bw_domain, parse_problem(THREE_BLOCKS, bw_domain))
        assert found.operators == 24 and found.generated >= found.expanded

    def test_limit_exceeded(self, bw_domain):
        problem = parse_problem(THREE_BLOCKS, bw_domain)
        result = bfs_plan(bw_domain, problem, SearchLimits(max_expanded=1, max_plan_length=30))
        assert result.status is SearchStatus.LIMIT_EXCEEDED

    def test_length_limit_distinguishes_truncation(self, bw_domain):
        # a too-small depth cap must NOT masquerade as a no-plan proof
        problem = parse_problem(THREE_BLOCKS, bw_domain)
        result = bfs_plan(
            bw_domain, problem, SearchLimits(max_expanded=100_000, max_plan_length=2)
        )
        assert result.status is SearchStatus.LIMIT_EXCEEDED

    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError):
            SearchLimits(max_expanded=0, max_plan_length=10)
        with pytest.raises(ValueError):
            SearchLimits(max_expanded=10, max_plan_length=-1)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_found_plans_are_shortest(self, seed):
        domain, problems = generate(GenSpec.blocksworld(blocks=3, seed=seed, count=1))
        problem = problems[0]
        result = bfs_plan(domain, problem, SearchLimits(100_000, 30))
        assert result.status is SearchStatus.FOUND
        assert validate_plan(problem, result.plan, domain).is_correct
        assert len(result.plan.steps) == reference_shortest_length(domain, problem)


class TestIndependentExecutor:
    def test_agrees_on_wrong_plan(self, bw_domain, bw5_problem, wrong_plan):
        outcome = run_plan(bw_domain, bw5_problem, wrong_plan)
        assert not outcome.accepted
        assert outcome.failed_step == 9
        assert [str(a) for a in outcome.unmet] == ["(clear b2)"]

    def test_agrees_on_correct_plan(self, bw_domain, bw5_problem, correct_plan):
        outcome = run_plan(bw_domain, bw5_problem, correct_plan)
        assert outcome == ExecutionOutcome(
            failed_step=None, unmet=(), goal_satisfied=True
        )
        assert outcome.accepted

    def test_agrees_on_truncated_plan(self, bw_domain, bw5_problem, correct_plan):
        truncated = Plan(correct_plan.steps[:-1])
        outcome = run_plan(bw_domain, bw5_problem, truncated)
        assert outcome.failed_step is None
        assert not outcome.goal_satisfied
        assert not outcome.accepted

    def test_unknown_action_raises(self, bw_domain, bw5_problem, correct_plan):
        plan = Plan((correct_plan.steps[0], GroundAction("teleport", ("b5",))))
        with pytest.raises(ValueError, match="^unknown action 'teleport'$"):
            run_plan(bw_domain, bw5_problem, plan)

    def test_wrong_argument_count_raises(self, bw_domain, bw5_problem):
        plan = Plan((GroundAction("unstack", ("b5",)),))
        with pytest.raises(ValueError, match=r"^wrong argument count for \(unstack b5\)$"):
            run_plan(bw_domain, bw5_problem, plan)


def _imported_modules(source: str) -> set[str]:
    """The dotted names of the modules a plancritic module imports, and of
    each name it imports from them, with relative imports resolved."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "plancritic" + ("." + base if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize(
    "source",
    [
        "from .semantics import apply",
        "from . import semantics",
        "from . import pddl, semantics as sem",
        "import plancritic.semantics",
        "from plancritic import semantics",
        "from plancritic.semantics import validate_plan",
        "def f():\n    from .semantics import apply",
    ],
)
def test_import_finder_sees_every_form(source):
    assert "plancritic.semantics" in _imported_modules(source)


@pytest.mark.parametrize("module,other", [("search", "semantics"), ("semantics", "search")])
def test_search_and_semantics_stay_independent(module, other):
    """Acceptance criterion 1 checks the validator against search.run_plan, so
    neither may use the other's code."""
    source = (Path(plancritic.__file__).parent / f"{module}.py").read_text()
    assert f"plancritic.{other}" not in _imported_modules(source)


@pytest.mark.parametrize(
    "path", sorted(Path(plancritic.__file__).parent.glob("*.py")), ids=lambda path: path.stem
)
def test_no_module_imports_a_private_name(path):
    """A plancritic name with a leading underscore is private to its module:
    another module that needs it needs a public name instead."""
    private = [
        name
        for name in _imported_modules(path.read_text())
        if name.startswith("plancritic.") and any(p.startswith("_") for p in name.split(".")[1:])
    ]
    assert private == []
