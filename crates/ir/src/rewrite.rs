//! Greedy pattern rewriting — the engine behind canonicalization.
//!
//! Patterns implement [`RewritePattern`]; [`apply_patterns_greedily`] walks
//! the op list to a fixpoint, like MLIR's `applyPatternsAndFoldGreedily`.
//! The `rgn` dialect's optimizations in `lssa-core` are expressed as
//! patterns over this same driver — that is the paper's point: region
//! transformations *are* classical SSA rewrites.

use crate::body::{Body, ROOT_REGION};
use crate::ids::OpId;
use crate::module::Module;
use crate::opcode::Purity;

/// Context visible to patterns (module-level lookups).
#[derive(Debug, Clone, Copy)]
pub struct RewriteCtx<'a> {
    /// The enclosing module (function signatures, globals). The function
    /// currently being rewritten has its body detached.
    pub module: &'a Module,
}

/// A local rewrite.
pub trait RewritePattern {
    /// Pattern name (debugging/statistics).
    fn name(&self) -> &'static str;

    /// Attempts to rewrite `op`; returns `true` when IR changed. A pattern
    /// may leave dead ops behind: after each sweep over the ops the driver
    /// erases them ([`erase_trivially_dead`]), and any change sends it
    /// around for another sweep.
    fn match_and_rewrite(&self, body: &mut Body, op: OpId, ctx: &RewriteCtx<'_>) -> bool;
}

/// Applies `patterns` until no pattern fires anywhere.
///
/// Between sweeps, trivially-dead pure ops are erased (patterns routinely
/// strand constant or selector ops).
///
/// Returns whether anything changed.
///
/// # Panics
///
/// Panics after an excessive number of sweeps, which indicates a pattern
/// that reports "changed" without making progress.
pub fn apply_patterns_greedily(
    body: &mut Body,
    ctx: &RewriteCtx<'_>,
    patterns: &[Box<dyn RewritePattern>],
) -> bool {
    let mut changed_any = false;
    for sweep in 0.. {
        assert!(
            sweep < 1000,
            "pattern rewriting failed to converge after 1000 sweeps"
        );
        let mut changed = false;
        for op in body.walk_ops() {
            if body.ops[op.index()].dead || body.ops[op.index()].parent().is_none() {
                continue;
            }
            for p in patterns {
                if body.ops[op.index()].dead || body.ops[op.index()].parent().is_none() {
                    break;
                }
                if p.match_and_rewrite(body, op, ctx) {
                    changed = true;
                }
            }
        }
        changed |= erase_trivially_dead(body);
        changed_any |= changed;
        if !changed {
            break;
        }
    }
    changed_any
}

/// Erases pure/alloc ops whose results are all unused, and then every op
/// that erasure leaves unused in turn. Returns whether anything was erased.
///
/// One walk finds the initially dead ops with O(1) use-count checks; from
/// there a worklist follows the cascade: erasing an op frees its operands,
/// and a freed value's defining op is queued if it is now dead too.
pub fn erase_trivially_dead(body: &mut Body) -> bool {
    let mut work = Vec::new();
    body.visit_region_ops(ROOT_REGION, &mut |op| {
        if is_trivially_dead(body, op) {
            work.push(op);
        }
    });
    let changed = !work.is_empty();
    let mut freed = Vec::new();
    while let Some(op) = work.pop() {
        // An op queued twice, or erased with an enclosing region, is gone.
        if !is_trivially_dead(body, op) {
            continue;
        }
        body.erase_op_freeing(op, &mut freed);
        for v in freed.drain(..) {
            if let Some(def) = body.defining_op(v) {
                if is_trivially_dead(body, def) {
                    work.push(def);
                }
            }
        }
    }
    changed
}

/// An attached, non-effecting op none of whose results is used.
fn is_trivially_dead(body: &Body, op: OpId) -> bool {
    let data = &body.ops[op.index()];
    !data.dead
        && data.parent().is_some()
        && data.opcode.purity() != Purity::Effect
        && data.results.iter().all(|&r| body.use_count(r) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use crate::opcode::Opcode;
    use crate::types::Type;

    /// A toy pattern: replaces `x + 0` with `x`.
    struct AddZero;
    impl RewritePattern for AddZero {
        fn name(&self) -> &'static str {
            "add-zero"
        }
        fn match_and_rewrite(&self, body: &mut Body, op: OpId, _ctx: &RewriteCtx<'_>) -> bool {
            if body.ops[op.index()].opcode != Opcode::AddI {
                return false;
            }
            let [a, b] = body.ops[op.index()].operands()[..] else {
                return false;
            };
            let is_zero = |body: &Body, v| {
                body.defining_op(v)
                    .map(|d| {
                        body.ops[d.index()].opcode == Opcode::ConstI
                            && body.ops[d.index()]
                                .attr(crate::attr::AttrKey::Value)
                                .and_then(|a| a.as_int())
                                == Some(0)
                    })
                    .unwrap_or(false)
            };
            let keep = if is_zero(body, b) {
                a
            } else if is_zero(body, a) {
                b
            } else {
                return false;
            };
            let result = body.ops[op.index()].result().unwrap();
            body.replace_all_uses(result, keep);
            body.erase_op(op);
            true
        }
    }

    #[test]
    fn greedy_driver_reaches_fixpoint_and_cleans_up() {
        let mut module = Module::new();
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let z = b.const_i(0, Type::I64);
        let s1 = b.addi(params[0], z);
        let s2 = b.addi(s1, z);
        b.ret(s2);
        let patterns: Vec<Box<dyn RewritePattern>> = vec![Box::new(AddZero)];
        let changed = {
            let ctx = RewriteCtx { module: &module };
            apply_patterns_greedily(&mut body, &ctx, &patterns)
        };
        assert!(changed);
        // Both adds and the constant should be gone; only return remains.
        assert_eq!(body.live_op_count(), 1);
        let ret = body.walk_ops()[0];
        assert_eq!(*body.ops[ret.index()].operands(), vec![params[0]]);
        module.add_function(
            "f",
            crate::types::Signature::new(vec![Type::I64], Type::I64),
            body,
        );
        crate::verifier::verify_module(&module).unwrap();
    }

    #[test]
    fn dead_alloc_ops_are_erased() {
        let mut module = Module::new();
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let _unused = b.lp_construct(0, vec![]);
        let v = b.lp_int(1);
        b.lp_ret(v);
        let patterns: Vec<Box<dyn RewritePattern>> = vec![];
        let ctx = RewriteCtx { module: &module };
        assert!(apply_patterns_greedily(&mut body, &ctx, &patterns));
        assert_eq!(body.live_op_count(), 2);
        module.add_function("f", crate::types::Signature::obj(0), body);
    }

    #[test]
    fn effectful_ops_survive() {
        let module = Module::new();
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        b.lp_inc(params[0]);
        b.lp_ret(params[0]);
        let patterns: Vec<Box<dyn RewritePattern>> = vec![];
        let ctx = RewriteCtx { module: &module };
        assert!(!apply_patterns_greedily(&mut body, &ctx, &patterns));
        assert_eq!(body.live_op_count(), 2);
    }
}
