"""Tests for the verifier, the rewrite driver and the pass manager."""

import pytest

from repro.ir.block import Block, single_block_region
from repro.ir.builder import OpBuilder
from repro.ir.module import ModuleOp
from repro.ir.operation import Operation, create_operation
from repro.ir.pass_manager import Pass, PassManager
from repro.ir.rewriter import (
    PatternRewriter,
    RewritePattern,
    apply_patterns_greedily,
)
from repro.ir.types import f64
from repro.ir.verifier import IRVerificationError, verify


def _module_with(ops_builder):
    module = ModuleOp.create()
    ops_builder(OpBuilder.at_end(module.body), module.body)
    return module


class TestVerifier:
    def test_valid_module_passes(self):
        def build(builder, body):
            a = builder.create("test.def", result_types=[f64])
            builder.create("test.use", [a.result()])

        verify(_module_with(build))

    def test_use_before_def_rejected(self):
        module = ModuleOp.create()
        a = create_operation("test.def", result_types=[f64])
        use = create_operation("test.use", [a.result()])
        module.body.append(use)
        module.body.append(a)
        with pytest.raises(IRVerificationError, match="dominate"):
            verify(module)

    def test_nested_region_sees_outer_values(self):
        def build(builder, body):
            a = builder.create("test.def", result_types=[f64])
            region = single_block_region()
            loop = builder.create("test.loop", regions=[region])
            inner = OpBuilder.at_end(region.entry_block)
            inner.create("test.use", [a.result()])

        verify(_module_with(build))

    def test_outer_cannot_see_inner_values(self):
        module = ModuleOp.create()
        builder = OpBuilder.at_end(module.body)
        region = single_block_region()
        builder.create("test.loop", regions=[region])
        inner = OpBuilder.at_end(region.entry_block)
        hidden = inner.create("test.def", result_types=[f64])
        builder.create("test.use", [hidden.result()])
        with pytest.raises(IRVerificationError, match="dominate"):
            verify(module)

    def test_corrupt_use_def_detected(self):
        def build(builder, body):
            a = builder.create("test.def", result_types=[f64])
            builder.create("test.use", [a.result()])

        module = _module_with(build)
        # Corrupt the chain behind the API's back.
        definer = module.body.operations[0]
        definer.result().uses.clear()
        with pytest.raises(IRVerificationError, match="use-def"):
            verify(module)

    def test_op_specific_verifier_runs(self):
        class BadOp(Operation):
            OP_NAME = "test.bad_unregistered"

            def verify_(self):
                raise ValueError("this op is always invalid")

        module = ModuleOp.create()
        op = Operation.__new__(BadOp)
        Operation.__init__(op, "test.bad_unregistered")
        module.body.append(op)
        with pytest.raises(IRVerificationError, match="always invalid"):
            verify(module)


class _FoldDouble(RewritePattern):
    """Rewrite test.double(x) into arith.addf(x, x)."""

    op_name = "test.double"

    def match_and_rewrite(self, op, rewriter):
        add = rewriter.create("arith.addf", [op.operand(0), op.operand(0)], [f64])
        rewriter.replace_op(op, [add.result()])
        return True


class _EraseDead(RewritePattern):
    op_name = "test.dead"

    def match_and_rewrite(self, op, rewriter):
        rewriter.erase_op(op)
        return True


class TestRewriter:
    def test_replace_op(self):
        def build(builder, body):
            a = builder.create("test.def", result_types=[f64])
            d = builder.create("test.double", [a.result()], [f64])
            builder.create("test.use", [d.result()])

        module = _module_with(build)
        assert apply_patterns_greedily(module, [_FoldDouble()])
        names = [op.name for op in module.body.operations]
        assert names == ["test.def", "arith.addf", "test.use"]
        verify(module)

    def test_fixpoint_over_chain(self):
        def build(builder, body):
            a = builder.create("test.def", result_types=[f64])
            x = a.result()
            for _ in range(4):
                x = builder.create("test.double", [x], [f64]).result()
            builder.create("test.use", [x])

        module = _module_with(build)
        apply_patterns_greedily(module, [_FoldDouble()])
        assert all(op.name != "test.double" for op in module.walk())
        verify(module)

    def test_no_match_returns_false(self):
        module = _module_with(lambda b, _: b.create("test.other"))
        assert not apply_patterns_greedily(module, [_FoldDouble()])

    def test_erase_pattern(self):
        module = _module_with(lambda b, _: b.create("test.dead"))
        apply_patterns_greedily(module, [_EraseDead()])
        assert len(module.body) == 0

    def test_replace_count_mismatch_rejected(self):
        op = create_operation("test.op", result_types=[f64, f64])
        Block().append(op)
        with pytest.raises(ValueError, match="replacement values"):
            PatternRewriter().replace_op(op, [])

    def test_nonconverging_pattern_detected(self):
        class Loop(RewritePattern):
            op_name = "test.spin"

            def match_and_rewrite(self, op, rewriter):
                new = rewriter.create("test.spin")
                rewriter.erase_op(op)
                return True

        module = _module_with(lambda b, _: b.create("test.spin"))
        with pytest.raises(RuntimeError, match="converge"):
            apply_patterns_greedily(module, [Loop()], max_iterations=10)


class TestPassManager:
    def test_runs_in_order_and_times(self):
        order = []

        class P(Pass):
            def __init__(self, name):
                self.name = name

            def run(self, module):
                order.append(self.name)

        pm = PassManager([P("one"), P("two")])
        pm.run(ModuleOp.create())
        assert order == ["one", "two"]
        assert set(pm.timings) == {"one", "two"}
        assert pm.pipeline_description() == "one -> two"

    def test_verify_each_catches_corruption(self):
        class Corrupt(Pass):
            name = "corrupt"

            def run(self, module):
                a = create_operation("test.def", result_types=[f64])
                use = create_operation("test.use", [a.result()])
                module.body.append(use)  # use before def: invalid
                module.body.append(a)

        pm = PassManager([Corrupt()])
        with pytest.raises(RuntimeError, match="after pass 'corrupt'"):
            pm.run(ModuleOp.create())

