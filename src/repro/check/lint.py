"""AST lint pass enforcing repo idioms over :mod:`repro` sources.

Seven rules, each born from a real failure mode of this codebase:

* ``explicit-guard`` — in ``algorithms/*.py``, calls to the explicit
  directives (``load_shared``, ``evict_shared``, ``load_dist``,
  ``evict_dist``) and to the directive-bearing row operation
  ``stream_row`` must sit under an ``if`` whose condition references
  ``explicit`` (``if ctx.explicit:`` or a hoisted ``if explicit:``).
  An unguarded directive silently burns cycles on the very hot LRU and
  numeric paths, where the calls are no-ops.
* ``unregistered-algorithm`` — every concrete
  :class:`~repro.algorithms.base.MatmulAlgorithm` subclass defined in
  ``algorithms/*.py`` must be registered in
  :mod:`repro.algorithms.registry`; an unregistered schedule is
  invisible to the CLI, the experiment harness, the tests *and* this
  package's ``check_all``.
* ``mutable-default`` — no mutable default arguments (``[]``, ``{}``,
  ``set()``, …): results containers that survive across calls have
  corrupted sweeps before.
* ``float-equality`` — no ``==`` / ``!=`` on floating-point ``Tdata``
  values (``Tdata = MS/σS + MD/σD`` mixes two float divisions; compare
  with a tolerance instead).
* ``dead-branch`` — no ``if`` statement whose entire body is ``pass``
  and that has no ``else``: the condition reads as if it handles a case
  but does nothing.  The LRU hierarchy carried exactly such a branch
  for dirty-victim write-back — it *looked* handled and masked a real
  undercounting bug.  ``elif … : pass`` inside a dispatch chain is
  exempt (there the no-op is an explicit "this case needs nothing").
* ``init-self-call`` — no ``self.__init__(...)`` calls: re-running
  ``__init__`` as a reset silently re-reads constructor arguments off
  ``self`` and skips any state added outside ``__init__``; write an
  explicit reinitialisation instead.
* ``fallback-telemetry`` — any function that consults the replay
  engine's ``supports(...)`` predicate (outside :mod:`repro.check`,
  which only *reasons* about it) must also reference
  ``note_engine_fallback``: a call site that can decide to fall back
  from replay to step but records no telemetry reintroduces exactly
  the silent-fallback hazard :mod:`repro.check.enginemodel` exists to
  surface.
* ``unpinned-bench-engine`` — in ``benchmarks/``, every direct
  ``run_experiment(...)`` call must pass ``engine=`` explicitly.  The
  default engine memoizes compiled traces and replay results, so an
  unpinned benchmark that *believes* it measures the step engine (or a
  cold replay) can silently measure a dict probe instead — the numbers
  look spectacular and mean nothing.  Pinning makes the measured
  configuration part of the benchmark's source.
* ``nonatomic-artifact-write`` — outside :mod:`repro.store`, no direct
  ``write_text``/``write_bytes`` calls and no write-mode ``open``:
  every artifact writer must go through the atomic tmp-file + fsync +
  rename helper (:mod:`repro.store.atomic`), because a plain write torn
  by a crash leaves silently truncated JSON/CSV that every reader then
  trusts.  Manifests, CSVs, cache entries and baselines all carried
  exactly this bug before the run store existed.

The syntactic rules above are dispatched through the
:mod:`repro.check.rules` registry (config-driven enable/disable), and
this module also hosts the per-file scan *orchestrator*
(:func:`scan_source` / :func:`run_lint`): it layers the dataflow
analyzer families — :mod:`repro.check.determinism` on
fingerprint-feeding modules and ``tests/``, :mod:`repro.check.purity`
on the whole package — over the lint pass, applies inline
``# repro: noqa[rule-id]`` suppressions, raises
``meta/unused-suppression`` for dead waivers, and scans files
serially.  The lint rules themselves are purely syntactic
(:mod:`ast`), need no imports of the linted code, and run over the
whole package in well under a second.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.check.findings import ERROR, Finding
from repro.check.rules import (
    DEFAULT_CONFIG,
    UNUSED_SUPPRESSION,
    RuleConfig,
    SuppressionIndex,
    filter_findings,
)

#: The explicit-directive method names of the execution contexts.
DIRECTIVES = frozenset({"load_shared", "evict_shared", "load_dist", "evict_dist"})

#: Calls the ``explicit-guard`` rule confines to ``if … explicit …``:
#: the directives, plus ``stream_row``, which issues them for a row.
GUARDED_CALLS = DIRECTIVES | {"stream_row"}

#: Call targets whose results are mutable (as default arguments).
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict"})


def _finding(rule: str, message: str, filename: str, line: int) -> Finding:
    return Finding(
        "lint",
        ERROR,
        f"{rule}: {message}",
        location=f"{filename}:{line}",
        rule=f"lint/{rule}",
    )


def _mentions_explicit(node: ast.AST) -> bool:
    """Whether a condition expression references an ``explicit`` flag."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "explicit":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "explicit":
            return True
    return False


def _directive_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in GUARDED_CALLS:
        return func.attr
    if isinstance(func, ast.Name) and func.id in GUARDED_CALLS:
        return func.id
    return None


def _check_explicit_guard(
    tree: ast.AST, filename: str, findings: List[Finding]
) -> None:
    """Rule ``explicit-guard``: directives only under ``if … explicit …``."""

    def visit(node: ast.AST, guarded: bool) -> None:
        if isinstance(node, ast.If) and _mentions_explicit(node.test):
            for child in node.body:
                visit(child, True)
            for child in node.orelse:
                # The else-branch of `if explicit:` is the *unguarded* path.
                visit(child, guarded)
            return
        if isinstance(node, ast.Call):
            name = _directive_name(node)
            if name is not None and not guarded:
                findings.append(
                    _finding(
                        "explicit-guard",
                        f"directive ctx.{name}(...) is not wrapped in "
                        "'if ctx.explicit'",
                        filename,
                        node.lineno,
                    )
                )
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    visit(tree, False)


def _check_registered(
    nodes: Sequence[ast.AST],
    filename: str,
    registered: Set[str],
    findings: List[Finding],
) -> None:
    """Rule ``unregistered-algorithm``: concrete schedules are registered."""
    for node in nodes:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {
            base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
            for base in node.bases
        }
        if "MatmulAlgorithm" not in bases:
            continue
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "name"
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                name = stmt.value.value
                if name != "abstract" and name not in registered:
                    findings.append(
                        _finding(
                            "unregistered-algorithm",
                            f"schedule {name!r} ({node.name}) is not "
                            "registered in repro.algorithms.registry",
                            filename,
                            node.lineno,
                        )
                    )


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        return name in _MUTABLE_CALLS
    return False


def _check_mutable_defaults(
    nodes: Sequence[ast.AST], filename: str, findings: List[Finding]
) -> None:
    """Rule ``mutable-default``: no shared mutable default arguments."""
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults: List[Optional[ast.expr]] = list(node.args.defaults)
        defaults += list(node.args.kw_defaults)
        for default in defaults:
            if default is not None and _is_mutable_default(default):
                findings.append(
                    _finding(
                        "mutable-default",
                        f"function {node.name!r} has a mutable default argument",
                        filename,
                        default.lineno,
                    )
                )


def _names_tdata(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return "tdata" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "tdata" in node.attr.lower()
    return False


def _check_float_equality(
    nodes: Sequence[ast.AST], filename: str, findings: List[Finding]
) -> None:
    """Rule ``float-equality``: no ``==`` / ``!=`` on ``Tdata`` values."""
    for node in nodes:
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        if _names_tdata(node.left) or any(_names_tdata(c) for c in node.comparators):
            findings.append(
                _finding(
                    "float-equality",
                    "'==' / '!=' on a floating-point Tdata value; compare "
                    "with a tolerance (math.isclose / pytest.approx)",
                    filename,
                    node.lineno,
                )
            )


def _elif_ifs(nodes: Sequence[ast.AST]) -> Set[int]:
    """Ids of ``ast.If`` nodes that are really ``elif`` arms.

    An ``elif`` is encoded as an ``If`` standing alone in its parent
    ``If``'s ``orelse``; those are part of a dispatch chain and exempt
    from the ``dead-branch`` rule.
    """
    out: Set[int] = set()
    for node in nodes:
        if (
            isinstance(node, ast.If)
            and len(node.orelse) == 1
            and isinstance(node.orelse[0], ast.If)
        ):
            out.add(id(node.orelse[0]))
    return out


def _check_dead_branch(
    nodes: Sequence[ast.AST], filename: str, findings: List[Finding]
) -> None:
    """Rule ``dead-branch``: no ``if cond: pass`` with no ``else``."""
    elifs = _elif_ifs(nodes)
    for node in nodes:
        if not isinstance(node, ast.If) or id(node) in elifs:
            continue
        if node.orelse:
            continue
        if len(node.body) == 1 and isinstance(node.body[0], ast.Pass):
            findings.append(
                _finding(
                    "dead-branch",
                    "'if' whose whole body is 'pass' and that has no "
                    "'else': the condition looks handled but does "
                    "nothing — handle it or delete it",
                    filename,
                    node.lineno,
                )
            )


def _check_init_self_call(
    nodes: Sequence[ast.AST], filename: str, findings: List[Finding]
) -> None:
    """Rule ``init-self-call``: no ``self.__init__(...)`` resets."""
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "__init__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            findings.append(
                _finding(
                    "init-self-call",
                    "'self.__init__(...)' used as a reset; write an "
                    "explicit reinitialisation (it is both clearer and "
                    "robust to state added outside __init__)",
                    filename,
                    node.lineno,
                )
            )


def _references_name(tree: ast.AST, name: str) -> bool:
    """Whether any node in ``tree`` names ``name`` (bare or attribute)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
    return False


def _check_fallback_telemetry(
    nodes: Sequence[ast.AST], filename: str, findings: List[Finding]
) -> None:
    """Rule ``fallback-telemetry``: ``supports(...)`` callers record it.

    A function that consults the replay ``supports`` predicate decides
    between the replay and step engines; unless it also references
    ``note_engine_fallback`` (to record the step fallback) the decision
    is invisible at runtime.
    """
    for func in nodes:
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        consults = any(
            isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))
            and (
                node.func.id
                if isinstance(node.func, ast.Name)
                else node.func.attr
            )
            == "supports"
            for node in ast.walk(func)
        )
        if consults and not _references_name(func, "note_engine_fallback"):
            findings.append(
                _finding(
                    "fallback-telemetry",
                    f"function {func.name!r} consults the replay engine's "
                    "supports(...) predicate but never references "
                    "note_engine_fallback; a replay->step fallback decided "
                    "here would be silent — record it",
                    filename,
                    func.lineno,
                )
            )


def _open_write_mode(call: ast.Call) -> bool:
    """Whether a call is a write/append-mode ``open`` / ``Path.open``."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id != "open":
            return False
        mode_position = 1  # builtin: open(file, mode, ...)
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        mode_position = 0  # method: path.open(mode, ...)
    else:
        return False
    mode: Optional[ast.expr] = None
    if len(call.args) > mode_position:
        mode = call.args[mode_position]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
        return False  # default mode is "r"; dynamic modes stay out of scope
    return any(ch in mode.value for ch in "wax")


def _check_nonatomic_write(
    nodes: Sequence[ast.AST], filename: str, findings: List[Finding]
) -> None:
    """Rule ``nonatomic-artifact-write``: writes go through repro.store."""
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            findings.append(
                _finding(
                    "nonatomic-artifact-write",
                    f"direct .{func.attr}(...) outside repro.store: a crash "
                    "mid-write leaves a silently truncated artifact; use "
                    "repro.store.atomic.atomic_write_text/_bytes",
                    filename,
                    node.lineno,
                )
            )
        elif _open_write_mode(node):
            findings.append(
                _finding(
                    "nonatomic-artifact-write",
                    "write-mode open(...) outside repro.store: a crash "
                    "mid-write leaves a silently truncated artifact; use "
                    "repro.store.atomic (or repro.store.checkpoint for "
                    "append-only logs)",
                    filename,
                    node.lineno,
                )
            )


def _check_bench_engine_pin(
    nodes: Sequence[ast.AST], filename: str, findings: List[Finding]
) -> None:
    """Rule ``unpinned-bench-engine``: benchmarks pin ``engine=``."""
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name != "run_experiment":
            continue
        if any(kw.arg == "engine" for kw in node.keywords):
            continue
        findings.append(
            _finding(
                "unpinned-bench-engine",
                "run_experiment(...) without engine=: the default engine "
                "memoizes traces and replay results, so this benchmark may "
                "measure a dict probe instead of the engine it claims to; "
                "pin engine='replay' or engine='step' explicitly",
                filename,
                node.lineno,
            )
        )


#: The syntactic lint checks, in dispatch order.  Each entry is
#: ``(rule id, gate, check)`` where ``gate`` names the
#: :class:`FileProfile` condition under which the rule applies
#: (``explicit-guard``/``unregistered-algorithm`` have bespoke wiring
#: below because they need the profile/registry).
_SIMPLE_CHECKS: "Sequence[Tuple[str, str, _Check]]" = (
    ("lint/mutable-default", "always", _check_mutable_defaults),
    ("lint/float-equality", "always", _check_float_equality),
    ("lint/dead-branch", "always", _check_dead_branch),
    ("lint/init-self-call", "always", _check_init_self_call),
    ("lint/nonatomic-artifact-write", "not-store", _check_nonatomic_write),
    ("lint/fallback-telemetry", "not-check", _check_fallback_telemetry),
    ("lint/unpinned-bench-engine", "benchmark-only", _check_bench_engine_pin),
)

_Check = Callable[[Sequence[ast.AST], str, List[Finding]], None]


@dataclass(frozen=True)
class FileProfile:
    """Which analyzer families and module-role gates apply to a file.

    The role flags mirror the package layout: ``algorithms_module``
    enables the directive/registry rules, ``store_module`` exempts the
    one package allowed to perform raw writes, ``check_module`` exempts
    the analyzers that probe ``supports`` analytically.  The family
    flags pick analysis passes: ``lint`` (syntactic), ``determinism``
    (dataflow, fingerprint-feeding modules plus tests), ``purity``
    (dataflow, knob→fingerprint).
    """

    algorithms_module: bool = False
    store_module: bool = False
    check_module: bool = False
    benchmark_module: bool = False
    lint: bool = True
    determinism: bool = False
    purity: bool = False

    @property
    def families(self) -> Set[str]:
        out = {"meta"}
        if self.lint:
            out.add("lint")
        if self.determinism:
            out.add("determinism")
        if self.purity:
            out.add("purity")
        return out


def lint_source(
    source: str,
    filename: str,
    *,
    algorithms_module: bool = False,
    store_module: bool = False,
    check_module: bool = False,
    benchmark_module: bool = False,
    registered: Optional[Set[str]] = None,
    config: Optional[RuleConfig] = None,
) -> List[Finding]:
    """Lint one module's source text; ``filename`` is for reporting only.

    ``store_module`` marks files inside :mod:`repro.store`, the one
    place allowed to perform raw writes (it implements the atomic
    protocol everything else must use).  ``check_module`` marks files
    inside :mod:`repro.check`, which probe the replay ``supports``
    predicate analytically and are exempt from ``fallback-telemetry``.

    This is the bare ``lint`` family: no dataflow rules, no
    suppression handling — :func:`scan_source` is the full per-file
    pipeline.
    """
    cfg = config if config is not None else DEFAULT_CONFIG
    findings: List[Finding] = []
    tree = _parse(source, filename, findings)
    if tree is None:
        return findings
    _lint_tree(
        tree,
        filename,
        findings,
        profile=FileProfile(
            algorithms_module=algorithms_module,
            store_module=store_module,
            check_module=check_module,
            benchmark_module=benchmark_module,
        ),
        registered=registered or set(),
        config=cfg,
    )
    return findings


def _parse(
    source: str, filename: str, findings: List[Finding]
) -> Optional[ast.Module]:
    try:
        return ast.parse(source, filename=filename)
    except SyntaxError as exc:
        findings.append(
            _finding("syntax", f"cannot parse: {exc.msg}", filename, exc.lineno or 0)
        )
        return None


def _lint_tree(
    tree: ast.Module,
    filename: str,
    findings: List[Finding],
    *,
    profile: FileProfile,
    registered: Set[str],
    config: RuleConfig,
) -> None:
    # One walk shared by every check — walking per rule dominated the
    # scan's profile.
    nodes = list(ast.walk(tree))
    for rule_id, gate, check in _SIMPLE_CHECKS:
        if gate == "not-store" and profile.store_module:
            continue
        if gate == "not-check" and profile.check_module:
            continue
        if gate == "benchmark-only" and not profile.benchmark_module:
            continue
        if config.allows(rule_id):
            check(nodes, filename, findings)
    if profile.algorithms_module:
        if config.allows("lint/explicit-guard"):
            _check_explicit_guard(tree, filename, findings)
        if config.allows("lint/unregistered-algorithm"):
            _check_registered(nodes, filename, registered, findings)


def scan_source(
    source: str,
    filename: str,
    *,
    profile: Optional[FileProfile] = None,
    registered: Optional[Set[str]] = None,
    config: Optional[RuleConfig] = None,
) -> List[Finding]:
    """The full per-file pipeline: every applicable analyzer family,
    then inline ``# repro: noqa[rule-id]`` suppressions, then the
    ``meta/unused-suppression`` self-check.
    """
    from repro.check.dataflow import MultiHooks, TaintSpec, analyze, build_parent_map
    from repro.check.determinism import DeterminismHooks
    from repro.check.purity import PurityHooks, purity_spec

    prof = profile if profile is not None else FileProfile()
    cfg = config if config is not None else DEFAULT_CONFIG
    findings: List[Finding] = []
    tree = _parse(source, filename, findings)
    if tree is None:
        return findings
    if prof.lint:
        _lint_tree(
            tree,
            filename,
            findings,
            profile=prof,
            registered=registered or set(),
            config=cfg,
        )
    # The dataflow pass costs ~10ms/file; a file with no fingerprint or
    # writer sink cannot produce a purity finding, so gate on the sink
    # names textually before paying for the engine.
    purity = prof.purity and (
        "cell_fingerprint" in source or "writer" in source
    )
    if prof.determinism or purity:
        # Both analyzers ride one dataflow pass: the determinism hooks
        # only read kinds and call shapes, so the purity spec (a strict
        # superset of the empty spec) serves both.
        hooks: List[Union[DeterminismHooks, PurityHooks]] = []
        if prof.determinism:
            hooks.append(DeterminismHooks(filename, build_parent_map(tree)))
        if purity:
            hooks.append(PurityHooks(filename))
        spec = purity_spec() if purity else TaintSpec()
        analyze(tree, spec, MultiHooks(hooks))
        for hook in hooks:
            findings += filter_findings(hook.findings, cfg)
    index = SuppressionIndex.from_source(source, filename)
    kept, _suppressed = index.filter(findings)
    if cfg.allows(UNUSED_SUPPRESSION):
        kept += index.unused_findings(prof.families, cfg)
    return kept


def _registered_names() -> Set[str]:
    from repro.algorithms.registry import ALGORITHMS, EXTRA_ALGORITHMS

    return set(ALGORITHMS) | set(EXTRA_ALGORITHMS)


#: Package files (relative, POSIX) on the determinism scope: the
#: modules that produce fingerprints, checkpoints, manifests or
#: serialized artifacts.  ``store/`` and ``fabric/`` are covered
#: wholesale by :func:`_profile_for`.
_DETERMINISM_FILES = frozenset(
    {
        "sim/parallel.py",
        "sim/telemetry.py",
        "sim/results.py",
        "sim/retrypolicy.py",
        "sim/faults.py",
        "check/incremental.py",
        "check/baseline.py",
        "check/findings.py",
        "check/sarif.py",
        "check/gap.py",
        "experiments/io.py",
    }
)


def _profile_for(path: Path, package_root: Optional[Path]) -> FileProfile:
    """Classify one file into its analyzer families and role gates."""
    relative: Optional[str] = None
    if package_root is not None:
        try:
            relative = path.relative_to(package_root).as_posix()
        except ValueError:
            relative = None
    in_tests = "tests" in path.parts and relative is None
    if in_tests:
        # Tests get the determinism hygiene pass only: they seed and
        # replay fingerprints, but repo idioms (atomic writes, guards)
        # do not apply to fixtures.
        return FileProfile(lint=False, determinism=True, purity=False)
    determinism = relative is not None and (
        relative.startswith(("store/", "fabric/"))
        or relative in _DETERMINISM_FILES
    )
    return FileProfile(
        algorithms_module=path.parent.name == "algorithms",
        store_module=path.parent.name == "store",
        check_module=path.parent.name == "check",
        benchmark_module="benchmarks" in path.parts and relative is None,
        lint=True,
        determinism=determinism,
        purity=relative is not None,
    )


def run_lint(
    root: Optional[Path] = None,
    *,
    paths: Optional[Iterable[Path]] = None,
    config: Optional[RuleConfig] = None,
) -> List[Finding]:
    """The source scan over the :mod:`repro` package (or explicit files).

    ``root`` defaults to the installed package directory, so the pass
    always checks the code that would actually run.  When the package
    lives in a source checkout (``src/repro``), the sibling
    ``benchmarks/`` suite is scanned too — its artifact writers are
    held to the same rules (e.g. ``nonatomic-artifact-write``) as the
    package's — and ``tests/`` gets the determinism hygiene pass.

    Files are scanned serially, in path order.  Threads would not help
    (``ast.parse`` holds the GIL) and are unsafe: CPython 3.11's AST
    constructor races on its recursion counter across threads.
    """
    package_root: Optional[Path] = None
    if paths is None:
        if root is None:
            root = Path(__file__).resolve().parent.parent
        package_root = root
        scan = sorted(root.rglob("*.py"))
        if root.parent.name == "src":
            repo_root = root.parent.parent
            for sibling in ("benchmarks", "tests"):
                extra = repo_root / sibling
                if extra.is_dir():
                    scan += sorted(extra.rglob("*.py"))
        paths = scan
    else:
        paths = list(paths)
        package_root = root
    registered = _registered_names()
    cfg = config if config is not None else DEFAULT_CONFIG

    findings: List[Finding] = []
    for path in paths:
        findings += scan_source(
            path.read_text(encoding="utf-8"),
            str(path),
            profile=_profile_for(path, package_root),
            registered=registered,
            config=cfg,
        )
    return findings
