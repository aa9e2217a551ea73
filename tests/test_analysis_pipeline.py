"""Pipeline integration: the analysis gate, check_level, the cache-key
audit and the CLI lint driver."""

import dataclasses

import pytest

from repro.analysis import AnalysisError, AnalysisGate
from repro.analysis.__main__ import main as lint_main
from repro.analysis.corpus import build_corpus
from repro.core import frontend
from repro.core.pipeline import CompileOptions, StencilCompiler
from repro.core.stencil import gauss_seidel_5pt_2d
from repro.ir import Pass, PassManager
from repro.ir.attributes import BoolAttr, IntegerAttr


def _all_entries():
    return [
        (entry, stem)
        for stem, entries in build_corpus().items()
        for entry in entries
    ]


class TestCorpusPipelinesClean:
    @pytest.mark.parametrize(
        "entry,stem", _all_entries(), ids=lambda e: getattr(e, "name", e)
    )
    def test_zero_diagnostics_after_every_pass(self, entry, stem):
        """Acceptance criterion: the analyzer reports nothing — not even
        notes — on any canonical pipeline over the example kernels, at
        every pass boundary. The one exception is IP016, which by design
        documents legitimately rejected fusion opportunities (the LU-SGS
        face-flux producer's halo exceeds its backward-sweep stencil
        halo); those must stay informational notes, never errors."""
        gate = AnalysisGate(fail_fast=False)
        compiler = StencilCompiler(entry.options)
        pm = compiler.build_pipeline()
        pm.gate = gate
        pm.gate_each = True
        module = entry.build()
        gate(module, after_pass=None)
        pm.run(module)
        findings = [
            d for d in gate.report.diagnostics if d.code != "IP016"
        ]
        assert findings == [], gate.report.render()
        assert all(
            d.severity == "note"
            for d in gate.report.diagnostics
            if d.code == "IP016"
        )


class _CorruptReversePass(Pass):
    """A stand-in for a buggy transformation: flips the traversal
    direction of every tiled loop without touching the sweep."""

    name = "corrupt-reverse"

    def run(self, module):
        for op in module.walk():
            if op.name == "cfd.tiled_loop":
                op.attributes["reverse"] = BoolAttr(not op.reverse)


class TestAnalysisGate:
    """Frontend-level mutants are rejected by the production validators
    before any pass runs, so the gate's job is catching corruption that
    *passes* introduce — simulated here by a deliberately buggy pass."""

    OPTIONS = dict(
        subdomain_sizes=(8, 8), parallel=True, vectorize=0, use_cache=False
    )

    def _module(self):
        return frontend.build_stencil_kernel(
            gauss_seidel_5pt_2d(), (16, 16), frontend.identity_body(4.0)
        )

    def _corrupted_pipeline(self, check_level):
        compiler = StencilCompiler(
            CompileOptions(check_level=check_level, **self.OPTIONS)
        )
        pm = compiler.build_pipeline()
        pm.passes.insert(1, _CorruptReversePass())  # right after tiling
        return pm

    def test_gate_raises_with_pass_name(self):
        pm = self._corrupted_pipeline("after-every-pass")
        with pytest.raises(AnalysisError) as info:
            pm.run(self._module())
        assert "IP001" in str(info.value)
        assert info.value.after_pass == "corrupt-reverse"
        assert info.value.report.has_errors

    def test_gate_after_pipeline_also_detects(self):
        pm = self._corrupted_pipeline("after-pipeline")
        with pytest.raises(AnalysisError) as info:
            pm.run(self._module())
        assert info.value.after_pass is None  # end-of-pipeline call

    def test_check_level_off_does_not_gate(self):
        pm = self._corrupted_pipeline("off")
        assert pm.gate is None
        pm.run(self._module())  # must not raise

    def test_invalid_check_level_rejected(self):
        options = CompileOptions(check_level="sometimes")
        with pytest.raises(ValueError, match="check_level"):
            StencilCompiler(options).build_pipeline()

    def test_gate_timing_recorded(self):
        options = CompileOptions(
            subdomain_sizes=(8, 8), vectorize=0, use_cache=False,
            check_level="after-pipeline",
        )
        module = frontend.build_stencil_kernel(
            gauss_seidel_5pt_2d(), (16, 16), frontend.identity_body(4.0)
        )
        compiler = StencilCompiler(options)
        compiler.lower(module)
        timings = compiler.pass_manager.timings
        assert PassManager.GATE_TIMING_KEY in timings
        assert timings[PassManager.GATE_TIMING_KEY] > 0
        assert PassManager.GATE_TIMING_KEY in (
            compiler.pass_manager.timing_report()
        )

    def test_collecting_gate_does_not_raise(self):
        module = self._module()
        (op,) = [o for o in module.walk() if o.name == "cfd.stencilOp"]
        op.attributes["sweep"] = IntegerAttr(-1)
        gate = AnalysisGate(fail_fast=False)
        gate(module, after_pass="frontend")
        assert gate.report.has_errors
        assert all(
            d.after_pass == "frontend" for d in gate.report.diagnostics
        )


class TestCacheKeyAudit:
    #: One non-default value per CompileOptions field. The audit below
    #: fails when a new field is added without extending this table,
    #: which is exactly the omission that caused the original
    #: describe()-based cache-aliasing bug.
    ALTERNATES = {
        "subdomain_sizes": (8, 8),
        "tile_sizes": (2, 4),
        "fuse": True,
        "vectorize": 4,
        "parallel": True,
        "opt_level": 0,
        "use_cache": False,
        "check_level": "after-pipeline",
        "validate_passes": True,
        "verify_engine": "symbolic",
        "machine": "py-numpy",
        "frontend_version": "fe-test",
    }

    def test_alternates_cover_every_field(self):
        field_names = {f.name for f in dataclasses.fields(CompileOptions)}
        assert field_names == set(self.ALTERNATES)
        for name, value in self.ALTERNATES.items():
            assert value != getattr(CompileOptions(), name)

    def test_every_field_but_use_cache_changes_the_key(self):
        base = CompileOptions().cache_key()
        for name, value in self.ALTERNATES.items():
            changed = CompileOptions(**{name: value}).cache_key()
            if name == "use_cache":
                assert changed == base
            else:
                assert changed != base, f"{name} does not reach the cache key"

    def test_check_level_in_key(self):
        assert "check_level" in CompileOptions().cache_key()

    def test_describe_is_not_the_key(self):
        # describe() is lossy (it drops check_level); the
        # fingerprint must not be built from it.
        a = CompileOptions(check_level="off")
        b = CompileOptions(check_level="after-pipeline")
        assert a.describe() == b.describe()
        assert a.cache_key() != b.cache_key()


class TestLintCLI:
    def test_single_stem_ok(self, capsys):
        assert lint_main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "[ok] quickstart" in out and "0 diagnostic" in out

    def test_example_path_resolves(self, capsys):
        assert lint_main(["examples/sor_poisson.py", "-q"]) == 0
        assert "sor_poisson" in capsys.readouterr().out

    def test_directory_resolves_all(self, capsys):
        assert lint_main(["examples", "-q"]) == 0
        out = capsys.readouterr().out
        for stem in build_corpus():
            assert stem in out

    def test_unknown_stem_errors(self):
        with pytest.raises(SystemExit):
            lint_main(["no_such_example"])

    def test_json_mode_emits_one_object_per_diagnostic(self, capsys):
        import json

        # euler_lusgs carries the one legitimate IP016 fusion-rejection
        # note, so its JSON stream is non-empty and notes don't fail it.
        assert lint_main(["euler_lusgs", "--json"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines, "json mode printed nothing"
        records = [json.loads(l) for l in lines]
        for rec in records:
            assert set(rec) == {
                "code", "severity", "title", "message", "op_path",
                "after_pass", "entry", "file",
            }
            assert rec["file"] == "examples/euler_lusgs.py"
        assert {r["code"] for r in records} == {"IP016"}
        # No human-readable verdict lines pollute the stream.
        assert "[ok]" not in out and "linted" not in out

    def test_github_mode_emits_annotations(self, capsys):
        assert lint_main(["euler_lusgs", "--github"]) == 0
        out = capsys.readouterr().out
        notices = [l for l in out.splitlines() if l.startswith("::notice ")]
        assert notices, "no ::notice annotation for the IP016 note"
        assert "file=examples/euler_lusgs.py" in notices[0]
        assert "title=IP016" in notices[0]
        # Verdict lines stay (the CI log keeps its summary), but the
        # annotation body must not contain a premature '::' terminator.
        assert "[ok] euler_lusgs" in out
        body = notices[0].split("::", 2)[-1]
        assert "::" not in body

    def test_github_mode_quickstart_silent(self, capsys):
        assert lint_main(["quickstart", "--github"]) == 0
        out = capsys.readouterr().out
        assert "::" not in out.replace("[ok]", "")

    def test_exit_one_on_error_diagnostics(self, monkeypatch, capsys):
        from repro.analysis import __main__ as cli
        from repro.analysis.corpus import CorpusEntry

        def bad_module():
            module = frontend.build_stencil_kernel(
                gauss_seidel_5pt_2d(), (16, 16), frontend.identity_body(4.0)
            )
            (op,) = [o for o in module.walk() if o.name == "cfd.stencilOp"]
            op.attributes["sweep"] = IntegerAttr(-1)
            return module

        corrupt = {
            "quickstart": (
                CorpusEntry(
                    "quickstart", "seeded mutant", bad_module,
                    CompileOptions(vectorize=0, use_cache=False),
                ),
            )
        }
        monkeypatch.setattr(cli, "build_corpus", lambda: corrupt)
        assert cli.main(["quickstart"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out and "IP001" in out
