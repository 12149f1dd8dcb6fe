"""Lint-pass tests: each rule fires on a seeded snippet, repo is clean."""

from __future__ import annotations

from pathlib import Path

from repro.check.lint import lint_source, run_lint


def rules(findings):
    return [f.message.split(":", 1)[0] for f in findings]


class TestExplicitGuard:
    def test_unguarded_directive_flagged(self):
        src = (
            "def run(self, ctx):\n"
            "    ctx.load_shared(1)\n"
        )
        found = lint_source(src, "alg.py", algorithms_module=True)
        assert rules(found) == ["explicit-guard"]
        assert "ctx.load_shared(...)" in found[0].message

    def test_guarded_directive_clean(self):
        src = (
            "def run(self, ctx):\n"
            "    if ctx.explicit:\n"
            "        ctx.load_shared(1)\n"
        )
        assert lint_source(src, "alg.py", algorithms_module=True) == []

    def test_hoisted_flag_clean(self):
        src = (
            "def run(self, ctx):\n"
            "    explicit = ctx.explicit\n"
            "    if explicit:\n"
            "        ctx.evict_dist(0, 1)\n"
        )
        assert lint_source(src, "alg.py", algorithms_module=True) == []

    def test_else_branch_is_unguarded(self):
        src = (
            "def run(self, ctx):\n"
            "    if ctx.explicit:\n"
            "        pass\n"
            "    else:\n"
            "        ctx.evict_shared(1)\n"
        )
        found = lint_source(src, "alg.py", algorithms_module=True)
        assert rules(found) == ["explicit-guard"]

    def test_unguarded_stream_row_flagged(self):
        # stream_row issues load/evict directives for a whole row, so a
        # schedule must guard it like the directives themselves.
        src = (
            "def run(self, ctx):\n"
            "    ctx.stream_row(0, 1, 2, 3, range(4))\n"
        )
        found = lint_source(src, "alg.py", algorithms_module=True)
        assert rules(found) == ["explicit-guard"]
        assert "ctx.stream_row(...)" in found[0].message

    def test_guarded_stream_row_clean(self):
        src = (
            "def run(self, ctx):\n"
            "    if ctx.explicit:\n"
            "        ctx.stream_row(0, 1, 2, 3, range(4), shared=True)\n"
            "    else:\n"
            "        ctx.compute_row(0, 1, 2, 3, range(4))\n"
        )
        assert lint_source(src, "alg.py", algorithms_module=True) == []

    def test_rule_scoped_to_algorithms_modules(self):
        # Contexts and caches implement the directives; only schedule
        # modules must guard the calls.
        src = "def f(ctx):\n    ctx.load_shared(1)\n"
        assert lint_source(src, "other.py", algorithms_module=False) == []


class TestUnregisteredAlgorithm:
    SRC = (
        "class Rogue(MatmulAlgorithm):\n"
        "    name = 'rogue'\n"
    )

    def test_unregistered_flagged(self):
        found = lint_source(
            self.SRC, "alg.py", algorithms_module=True, registered={"shared-opt"}
        )
        assert rules(found) == ["unregistered-algorithm"]
        assert "'rogue'" in found[0].message

    def test_registered_clean(self):
        assert (
            lint_source(
                self.SRC, "alg.py", algorithms_module=True, registered={"rogue"}
            )
            == []
        )

    def test_abstract_base_exempt(self):
        src = (
            "class Base(MatmulAlgorithm):\n"
            "    name = 'abstract'\n"
        )
        assert lint_source(src, "alg.py", algorithms_module=True, registered=set()) == []


class TestMutableDefault:
    def test_list_default_flagged(self):
        found = lint_source("def f(x=[]):\n    pass\n", "m.py")
        assert rules(found) == ["mutable-default"]

    def test_call_default_flagged(self):
        found = lint_source("def f(x=dict()):\n    pass\n", "m.py")
        assert rules(found) == ["mutable-default"]

    def test_kwonly_default_flagged(self):
        found = lint_source("def f(*, x={}):\n    pass\n", "m.py")
        assert rules(found) == ["mutable-default"]

    def test_none_default_clean(self):
        assert lint_source("def f(x=None, y=0):\n    pass\n", "m.py") == []


class TestFloatEquality:
    def test_eq_on_tdata_flagged(self):
        found = lint_source("ok = result.tdata == 1.5\n", "m.py")
        assert rules(found) == ["float-equality"]

    def test_neq_on_tdata_name_flagged(self):
        found = lint_source("bad = tdata_serial != tdata_parallel\n", "m.py")
        assert rules(found) == ["float-equality"]

    def test_ordering_comparison_clean(self):
        assert lint_source("ok = tdata < 1.5\n", "m.py") == []

    def test_eq_on_other_names_clean(self):
        assert lint_source("ok = ms == md\n", "m.py") == []


class TestDeadBranch:
    def test_if_pass_flagged(self):
        src = (
            "def f(x):\n"
            "    if x > 0:\n"
            "        pass\n"
            "    return x\n"
        )
        found = lint_source(src, "m.py")
        assert rules(found) == ["dead-branch"]

    def test_if_pass_with_else_clean(self):
        src = (
            "def f(x):\n"
            "    if x > 0:\n"
            "        pass\n"
            "    else:\n"
            "        x = -x\n"
            "    return x\n"
        )
        assert lint_source(src, "m.py") == []

    def test_elif_pass_in_dispatch_chain_clean(self):
        # `elif op == COMPUTE: pass` is a legitimate "nothing to do for
        # this case" arm (repro.check.capacity uses exactly this).
        src = (
            "def f(op):\n"
            "    if op == 1:\n"
            "        handle()\n"
            "    elif op == 2:\n"
            "        pass\n"
            "    elif op == 3:\n"
            "        other()\n"
        )
        assert lint_source(src, "m.py") == []

    def test_body_with_real_statements_clean(self):
        src = (
            "def f(x):\n"
            "    if x > 0:\n"
            "        x += 1\n"
            "    return x\n"
        )
        assert lint_source(src, "m.py") == []


class TestInitSelfCall:
    def test_reset_via_init_flagged(self):
        src = (
            "class C:\n"
            "    def reset(self):\n"
            "        self.__init__(self.p, self.cs)\n"
        )
        found = lint_source(src, "m.py")
        assert rules(found) == ["init-self-call"]

    def test_super_init_clean(self):
        src = (
            "class C(B):\n"
            "    def __init__(self):\n"
            "        super().__init__()\n"
        )
        assert lint_source(src, "m.py") == []

    def test_other_objects_init_clean(self):
        src = "def f(obj):\n    obj.__init__()\n"
        assert lint_source(src, "m.py") == []


class TestNonatomicArtifactWrite:
    def test_write_text_flagged(self):
        src = "def save(path, doc):\n    path.write_text(doc)\n"
        assert rules(lint_source(src, "m.py")) == ["nonatomic-artifact-write"]

    def test_write_bytes_flagged(self):
        src = "def save(path, doc):\n    path.write_bytes(doc)\n"
        assert rules(lint_source(src, "m.py")) == ["nonatomic-artifact-write"]

    def test_builtin_open_write_mode_flagged(self):
        src = 'def save(path):\n    with open(path, "w") as fh:\n        fh.write("x")\n'
        assert rules(lint_source(src, "m.py")) == ["nonatomic-artifact-write"]

    def test_path_open_append_mode_flagged(self):
        src = 'def save(path):\n    fh = path.open(mode="ab")\n'
        assert rules(lint_source(src, "m.py")) == ["nonatomic-artifact-write"]

    def test_read_mode_clean(self):
        src = (
            'def load(path):\n'
            '    with open(path) as fh:\n'
            "        a = fh.read()\n"
            '    with open(path, "rb") as fh:\n'
            "        b = fh.read()\n"
            "    return a, b\n"
        )
        assert lint_source(src, "m.py") == []

    def test_dynamic_mode_out_of_scope(self):
        src = "def touch(path, mode):\n    return open(path, mode)\n"
        assert lint_source(src, "m.py") == []

    def test_store_module_exempt(self):
        src = 'def save(path, doc):\n    path.write_text(doc)\n'
        assert lint_source(src, "m.py", store_module=True) == []

    def test_atomic_helper_usage_clean(self):
        src = (
            "from repro.store.atomic import atomic_write_text\n"
            "def save(path, doc):\n"
            "    atomic_write_text(path, doc)\n"
        )
        assert lint_source(src, "m.py") == []


class TestFallbackTelemetry:
    SILENT = (
        "def pick_engine(setting, policy, inclusive, check):\n"
        "    if supports(setting.mode, policy, inclusive, check):\n"
        "        return 'replay'\n"
        "    return 'step'\n"
    )

    def test_silent_supports_consult_flagged(self):
        found = lint_source(self.SILENT, "m.py")
        assert rules(found) == ["fallback-telemetry"]
        assert "'pick_engine'" in found[0].message

    def test_attribute_call_flagged(self):
        src = (
            "def pick(setting):\n"
            "    return replay_engine.supports(setting.mode, 'lru', False, False)\n"
        )
        assert rules(lint_source(src, "m.py")) == ["fallback-telemetry"]

    def test_recording_caller_clean(self):
        src = (
            "def pick_engine(setting, policy, inclusive, check):\n"
            "    if supports(setting.mode, policy, inclusive, check):\n"
            "        return 'replay'\n"
            "    note_engine_fallback(setting.key, policy, inclusive, check)\n"
            "    return 'step'\n"
        )
        assert lint_source(src, "m.py") == []

    def test_check_modules_exempt(self):
        # repro.check reasons about the predicate analytically; it never
        # decides an engine and owes no telemetry.
        assert lint_source(self.SILENT, "m.py", check_module=True) == []

    def test_unrelated_supports_free_function_clean(self):
        src = "def f(x):\n    return x + 1\n"
        assert lint_source(src, "m.py") == []


class TestUnpinnedBenchEngine:
    UNPINNED = (
        "def bench_cell(benchmark):\n"
        "    r = run_experiment('shared-opt', m, 8, 8, 8, 'lru-50')\n"
        "    assert r.ms > 0\n"
    )

    def test_unpinned_call_flagged_in_benchmark(self):
        found = lint_source(self.UNPINNED, "b.py", benchmark_module=True)
        assert rules(found) == ["unpinned-bench-engine"]
        assert "engine=" in found[0].message

    def test_attribute_call_flagged(self):
        src = (
            "def bench_cell(benchmark):\n"
            "    return runner.run_experiment('x', m, 8, 8, 8, 'ideal')\n"
        )
        found = lint_source(src, "b.py", benchmark_module=True)
        assert rules(found) == ["unpinned-bench-engine"]

    def test_pinned_call_clean(self):
        src = (
            "def bench_cell(benchmark):\n"
            "    r = run_experiment('x', m, 8, 8, 8, 'lru-50', engine='replay')\n"
        )
        assert lint_source(src, "b.py", benchmark_module=True) == []

    def test_rule_scoped_to_benchmarks(self):
        # Library and test code may rely on the default engine choice.
        assert lint_source(self.UNPINNED, "m.py") == []


class TestSyntaxError:
    def test_unparseable_reported_not_raised(self):
        found = lint_source("def f(:\n", "m.py")
        assert rules(found) == ["syntax"]


class TestRunLint:
    def test_repo_sources_are_clean(self):
        assert run_lint() == []

    def test_explicit_paths(self, tmp_path: Path):
        bad = tmp_path / "algorithms" / "rogue.py"
        bad.parent.mkdir()
        bad.write_text("def run(ctx):\n    ctx.load_shared(1)\n")
        found = run_lint(paths=[bad])
        assert len(found) == 1
        assert found[0].location == f"{bad}:2"
