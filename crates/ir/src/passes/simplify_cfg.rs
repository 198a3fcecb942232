//! CFG simplification: unreachable-block removal and straight-line block
//! merging. Runs after the `rgn`→CFG lowering to tidy the jump-table code it
//! emits (§IV-C).

use crate::analysis::BlockGraph;
use crate::body::Body;
use crate::ids::{BlockId, RegionId};
use crate::module::Module;
use crate::opcode::Opcode;
use crate::pass::Pass;
use std::collections::HashMap;

/// The CFG simplification pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimplifyCfgPass;

impl Pass for SimplifyCfgPass {
    fn name(&self) -> &'static str {
        "simplify-cfg"
    }

    fn function_local(&self) -> bool {
        true
    }

    fn run_on_function(&self, _module: &Module, body: &mut Body) -> bool {
        run_on_body(body)
    }
}

/// Runs CFG simplification on one body. Returns whether anything changed.
pub fn run_on_body(body: &mut Body) -> bool {
    let mut changed = false;
    loop {
        let mut round = remove_unreachable_blocks(body);
        round |= merge_straightline_blocks(body);
        changed |= round;
        if !round {
            break;
        }
    }
    changed
}

/// Removes blocks unreachable from their region's entry. Returns whether
/// anything was removed.
pub fn remove_unreachable_blocks(body: &mut Body) -> bool {
    let mut changed = false;
    for ri in 0..body.regions.len() {
        let region = RegionId(ri as u32);
        // A region's entry is always reachable, so a region needs two
        // blocks to have an unreachable one.
        if body.regions[ri].blocks.len() < 2 {
            continue;
        }
        // Skip detached regions (their parent op was erased).
        if ri != 0 && body.regions[ri].parent.is_none() {
            continue;
        }
        let dead: Vec<BlockId> = BlockGraph::compute(body, region).unreachable().to_vec();
        if dead.is_empty() {
            continue;
        }
        for &b in &dead {
            body.erase_block(b);
        }
        changed = true;
    }
    changed
}

/// Merges each block that is the unique successor of a block ending in an
/// unconditional branch, when it is also that block's unique predecessor
/// edge. Returns whether anything changed.
pub fn merge_straightline_blocks(body: &mut Body) -> bool {
    let mut changed = false;
    for ri in 0..body.regions.len() {
        if body.regions[ri].blocks.len() < 2 {
            continue;
        }
        if ri != 0 && body.regions[ri].parent.is_none() {
            continue;
        }
        'merge: loop {
            // Count predecessor edges per block within this region.
            let blocks = body.regions[ri].blocks.clone();
            let mut pred_edges: HashMap<BlockId, usize> = HashMap::new();
            for &b in &blocks {
                if let Some(t) = body.terminator(b) {
                    for s in body.ops[t.index()].successors() {
                        *pred_edges.entry(s.block).or_default() += 1;
                    }
                }
            }
            for &pred in &blocks {
                let Some(term) = body.terminator(pred) else {
                    continue;
                };
                if body.ops[term.index()].opcode != Opcode::Br {
                    continue;
                }
                let succ = body.ops[term.index()].successors()[0].block;
                // Never merge the region entry (it has an implicit
                // predecessor: the region's own entry edge).
                if succ == pred
                    || succ == blocks[0]
                    || pred_edges.get(&succ).copied().unwrap_or(0) != 1
                {
                    continue;
                }
                // Rewire: block args become the branch operands.
                let args = body.ops[term.index()].successors()[0].args.clone();
                let params = body.blocks[succ.index()].args.clone();
                for (&p, &a) in params.iter().zip(&args) {
                    body.replace_all_uses(p, a);
                }
                body.erase_op(term);
                body.merge_block_into(succ, pred);
                changed = true;
                continue 'merge;
            }
            break;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::ROOT_REGION;
    use crate::builder::Builder;
    use crate::types::Type;

    #[test]
    fn straightline_chain_merges_to_one_block() {
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let b1 = body.new_block(ROOT_REGION, &[Type::I64]);
        let b2 = body.new_block(ROOT_REGION, &[]);
        let mut b = Builder::at_end(&mut body, entry);
        let c = b.const_i(1, Type::I64);
        let s = b.addi(params[0], c);
        b.br(b1, vec![s]);
        let arg = body.blocks[b1.index()].args[0];
        let mut bb1 = Builder::at_end(&mut body, b1);
        bb1.br(b2, vec![]);
        let mut bb2 = Builder::at_end(&mut body, b2);
        bb2.ret(arg);
        assert!(run_on_body(&mut body));
        assert_eq!(body.regions[0].blocks.len(), 1);
        // return now directly uses the add result.
        let ret = body.terminator(entry).unwrap();
        assert_eq!(*body.ops[ret.index()].operands(), vec![s]);
    }

    #[test]
    fn diamond_is_not_merged() {
        let (mut body, params) = Body::new(&[Type::I1]);
        let entry = body.entry_block();
        let a = body.new_block(ROOT_REGION, &[]);
        let c = body.new_block(ROOT_REGION, &[]);
        let join = body.new_block(ROOT_REGION, &[Type::I64]);
        let mut b = Builder::at_end(&mut body, entry);
        b.cond_br(params[0], (a, vec![]), (c, vec![]));
        let mut ba = Builder::at_end(&mut body, a);
        let va = ba.const_i(1, Type::I64);
        ba.br(join, vec![va]);
        let mut bc = Builder::at_end(&mut body, c);
        let vc = bc.const_i(2, Type::I64);
        bc.br(join, vec![vc]);
        let arg = body.blocks[join.index()].args[0];
        let mut bj = Builder::at_end(&mut body, join);
        bj.ret(arg);
        assert!(!run_on_body(&mut body));
        assert_eq!(body.regions[0].blocks.len(), 4);
    }

    #[test]
    fn self_loop_not_merged() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let lp = body.new_block(ROOT_REGION, &[]);
        Builder::at_end(&mut body, entry).br(lp, vec![]);
        Builder::at_end(&mut body, lp).br(lp, vec![]);
        // entry->lp merges (single edge), then lp self-branches; must not
        // merge the self loop or loop forever.
        run_on_body(&mut body);
        assert!(!body.regions[0].blocks.is_empty());
    }
}
