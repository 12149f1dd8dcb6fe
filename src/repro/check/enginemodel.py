"""Engine-conformance analysis: where replay silently becomes step.

:func:`repro.sim.runner.run_experiment` runs the step engine unless a
caller opts into ``engine="replay"``.  An opted-in call quietly
interprets the schedule with the step oracle whenever the requested
configuration is outside :func:`repro.cache.replay.supports` (checked
IDEAL runs, inclusive hierarchies, associative/PLRU policies).  That
fallback is bit-identical, but a user who asked for replay deserves to
know statically which cells will not get it.

Two passes, both pure static analysis:

* :func:`fallback_matrix` walks the canonical configuration space
  (every registered setting × representative replacement policies ×
  inclusive × check) through the ``supports`` predicate and emits one
  ``engine/silent-fallback`` warning per distinct unsupported
  configuration class (classes the predicate actually distinguishes —
  duplicate settings of the same mode collapse).

* :func:`scan_call_sites` parses the package, ``benchmarks/`` and
  ``examples/`` sources and flags every ``run_experiment``/sweep call
  that passes a literal ``engine="replay"`` and whose *literal*
  arguments pin an unsupported configuration without opting into
  strictness (``strict_engine=True``).  A call that omits ``engine=``
  runs step and cannot fall back.  Dynamic arguments are out of
  scope — the pass proves what it flags.

Findings are warnings: the fallback is correct, just implicit.  The
companion lint rule ``lint/fallback-telemetry``
(:mod:`repro.check.lint`) keeps future fallback sites honest by
requiring them to record telemetry.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cache.replay import REPLAY_POLICIES, supports
from repro.check.findings import WARNING, Finding
from repro.sim.settings import SETTINGS

#: Replacement policies the configuration walk probes: the replay-native
#: pair plus the associativity/PLRU ablations the step engine owns.
CANONICAL_POLICIES: Tuple[str, ...] = (
    "lru",
    "fifo",
    "plru",
    "assoc8",
    "assoc8-plru",
)

#: Call targets the source scan understands.
_RUNNER_CALLS = frozenset(
    {
        "run_experiment",
        "order_sweep",
        "ratio_sweep",
        "parallel_order_sweep",
    }
)

#: ``run_experiment``'s positional ``setting`` slot (0-based).
_SETTING_ARG_POSITION = 5


def _finding(message: str, *, location: str = "") -> Finding:
    return Finding(
        "engine",
        WARNING,
        message,
        location=location,
        rule="engine/silent-fallback",
    )


def fallback_matrix() -> List[Finding]:
    """One warning per unsupported configuration class.

    The ``supports`` predicate consults ``(mode, check)`` in IDEAL mode
    and ``(policy, inclusive)`` in LRU mode; configurations it cannot
    distinguish share one finding, with every affected setting named.
    """
    classes: Dict[Tuple[str, ...], Tuple[List[str], str]] = {}
    for key in sorted(SETTINGS):
        setting = SETTINGS[key]
        for policy in CANONICAL_POLICIES:
            for inclusive in (False, True):
                for check in (False, True):
                    if supports(setting.mode, policy, inclusive, check):
                        continue
                    if setting.mode == "ideal":
                        sig: Tuple[str, ...] = ("ideal", str(check))
                        detail = "check=True"
                    else:
                        sig = ("lru", policy, str(inclusive))
                        parts = [f"policy={policy!r}"]
                        if inclusive:
                            parts.append("inclusive=True")
                        detail = ", ".join(parts)
                    names, _ = classes.setdefault(sig, ([], detail))
                    if key not in names:
                        names.append(key)
    findings: List[Finding] = []
    for sig in sorted(classes):
        names, detail = classes[sig]
        findings.append(
            _finding(
                f"setting {'/'.join(names)} with {detail} silently falls "
                "back from the replay engine to the step engine; pass "
                "strict_engine=True to fail fast or engine='step' to make "
                "the choice explicit",
                location="src/repro/sim/runner.py",
            )
        )
    return findings


def _literal(node: Optional[ast.expr]) -> Tuple[object, bool]:
    """``(value, known)`` for a literal expression; ``known=False`` when
    the value is dynamic and the scan must not guess."""
    if node is None:
        return None, False
    if isinstance(node, ast.Constant):
        return node.value, True
    return None, False


def _call_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _classify_call(call: ast.Call) -> Optional[str]:
    """Why this call silently falls back, or ``None`` if it provably
    does not (or the scan cannot prove it does)."""
    name = _call_name(call)
    if name not in _RUNNER_CALLS:
        return None
    kw: Dict[str, ast.expr] = {
        k.arg: k.value for k in call.keywords if k.arg is not None
    }
    engine, engine_known = _literal(kw.get("engine"))
    if not engine_known or engine != "replay":
        return None  # default or explicit step engine, or dynamic
    strict, strict_known = _literal(kw.get("strict_engine"))
    if "strict_engine" in kw and (not strict_known or bool(strict)):
        return None  # strict mode raises instead of falling back

    policy, policy_known = _literal(kw.get("policy"))
    if "policy" not in kw:
        policy, policy_known = "lru", True
    inclusive, inclusive_known = _literal(kw.get("inclusive"))
    if "inclusive" not in kw:
        inclusive, inclusive_known = False, True
    check, check_known = _literal(kw.get("check"))
    if "check" not in kw:
        check, check_known = False, True

    if name == "run_experiment":
        setting_node: Optional[ast.expr] = kw.get("setting")
        if setting_node is None and len(call.args) > _SETTING_ARG_POSITION:
            setting_node = call.args[_SETTING_ARG_POSITION]
        if setting_node is None:
            setting_value: object = "ideal"  # run_experiment's default
            setting_known = True
        else:
            setting_value, setting_known = _literal(setting_node)
        if not setting_known or setting_value not in SETTINGS:
            mode: Optional[str] = None
        else:
            mode = SETTINGS[str(setting_value)].mode
        if mode is not None:
            needed_known = (
                check_known
                if mode == "ideal"
                else (policy_known and inclusive_known)
            )
            if needed_known and not supports(
                mode, str(policy), bool(inclusive), bool(check)
            ):
                return (
                    f"run_experiment(setting={setting_value!r}, "
                    f"policy={policy!r}, inclusive={inclusive!r}, "
                    f"check={check!r})"
                )
            if needed_known:
                return None
        # Mode unknown: fall through to the one-sided decisions below.

    # Sweeps carry their settings inside the entries; a pinned
    # unsupported policy or inclusive=True falls back for every
    # LRU-mode entry, and check=True for every IDEAL-mode entry.
    if inclusive_known and bool(inclusive):
        return f"{name}(..., inclusive=True)"
    if policy_known and str(policy) not in REPLAY_POLICIES:
        return f"{name}(..., policy={policy!r})"
    if name != "run_experiment" and check_known and bool(check):
        return f"{name}(..., check=True) (IDEAL-mode entries)"
    return None


def scan_call_sites(
    root: Optional[Path] = None,
    *,
    paths: Optional[Iterable[Path]] = None,
) -> List[Finding]:
    """Flag experiment/sweep call sites that will silently fall back.

    ``root`` defaults to the installed package directory; in a source
    checkout the sibling ``benchmarks/`` and ``examples/`` trees are
    scanned too — that is where the ablation studies pin the
    associative/PLRU and inclusive configurations.
    """
    base: Optional[Path] = None
    if paths is None:
        if root is None:
            root = Path(__file__).resolve().parent.parent
        scan = sorted(root.rglob("*.py"))
        if root.parent.name == "src":
            base = root.parent.parent  # repo root, for portable locations
            for sibling in ("benchmarks", "examples"):
                extra = base / sibling
                if extra.is_dir():
                    scan += sorted(extra.rglob("*.py"))
        paths = scan
    findings: List[Finding] = []
    for path in paths:
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except SyntaxError:
            continue  # lint/syntax owns unparseable sources
        shown = path
        if base is not None:
            try:
                shown = path.relative_to(base)
            except ValueError:
                pass
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            reason = _classify_call(node)
            if reason is not None:
                findings.append(
                    _finding(
                        f"{reason} silently falls back from the replay "
                        "engine to the step engine; pass strict_engine=True "
                        "to fail fast or engine='step' to make the choice "
                        "explicit",
                        location=f"{shown}:{node.lineno}",
                    )
                )
    return findings


def check_engine_model(
    root: Optional[Path] = None,
    *,
    paths: Optional[Sequence[Path]] = None,
) -> List[Finding]:
    """The full engine-conformance pass: matrix walk + call-site scan."""
    return fallback_matrix() + scan_call_sites(root, paths=paths)
