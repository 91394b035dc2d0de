"""Plan generation, validation, and iterative critique for STRIPS planning.

The public names below, and the submodules themselves, are read on first
access (PEP 562), so that importing one submodule, such as ``plancritic.cli``
for a ``generate`` run, does not import the refinement loop and its HTTP
client.
"""

import importlib

__version__ = "0.1.0"

# the submodule each public name comes from
_SOURCES = {
    "critics": ("CriticBackend", "CriticConfig", "extract_verdict"),
    "generators": ("Benchmark", "GenSpec", "generate", "obfuscate"),
    "orchestrator": ("LoopConfig", "PlannerConfig", "run_batch", "run_problem"),
    "pddl": (
        "ActionSchema",
        "Atom",
        "DomainDef",
        "GroundAction",
        "Plan",
        "PddlError",
        "ProblemDef",
        "parse_domain",
        "parse_plan",
        "parse_problem",
        "print_domain",
        "print_plan",
        "print_problem",
    ),
    "report": ("Metrics", "RunRecord", "score", "summary_line", "wald_ci"),
    "search": ("SearchLimits", "SearchStatus", "bfs_plan", "run_plan"),
    "semantics": (
        "Correct",
        "CritiqueLabel",
        "GoalNotReached",
        "ValidationResult",
        "WrongAtStep",
        "validate_plan",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}
_SUBMODULES = {*_SOURCES, "cli", "domains", "jsonform", "llm", "prompting", "report_formats"}

__all__ = sorted(["__version__", *_MODULE_OF])


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing it binds it here
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without calling here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
