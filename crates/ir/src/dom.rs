//! Dominator trees for region CFGs.
//!
//! Each region is a single-entry sub-CFG; dominance inside one region is
//! computed with the Cooper–Harvey–Kennedy iterative algorithm. Cross-region
//! visibility (a nested region sees values of enclosing regions) is resolved
//! by [`DomInfo::value_dominates_op`], mirroring MLIR's dominance rules.

use crate::body::{Body, ValueDef};
use crate::ids::{BlockId, OpId, RegionId, ValueId};
use std::collections::HashMap;

/// Dominator tree for one region.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator per block (entry maps to itself).
    idom: HashMap<BlockId, BlockId>,
    /// Reverse-postorder index (used for intersection).
    rpo_index: HashMap<BlockId, usize>,
    /// The region's entry block.
    entry: BlockId,
}

impl DomTree {
    /// Computes the dominator tree for `region` of `body`.
    pub fn compute(body: &Body, region: RegionId) -> DomTree {
        let blocks = &body.regions[region.index()].blocks;
        let entry = blocks[0];
        // Successor map.
        let succs = |b: BlockId| -> Vec<BlockId> {
            match body.terminator(b) {
                Some(t) => body.ops[t.index()]
                    .successors()
                    .iter()
                    .map(|s| s.block)
                    .collect(),
                None => Vec::new(),
            }
        };
        // Reverse postorder.
        let mut visited = std::collections::HashSet::new();
        let mut postorder = Vec::new();
        // Iterative DFS with explicit stack.
        let mut stack = vec![(entry, 0usize)];
        visited.insert(entry);
        let mut succ_cache: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            let ss = succ_cache.entry(b).or_insert_with(|| succs(b));
            if *i < ss.len() {
                let s = ss[*i];
                *i += 1;
                if visited.insert(s) {
                    stack.push((s, 0));
                }
            } else {
                postorder.push(b);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = postorder.iter().rev().copied().collect();
        let rpo_index: HashMap<BlockId, usize> =
            rpo.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        // Predecessor map (reachable blocks only).
        let mut preds: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        for &b in &rpo {
            for s in succ_cache.get(&b).cloned().unwrap_or_default() {
                preds.entry(s).or_default().push(b);
            }
        }
        // Iterative idom fixpoint.
        let mut idom: HashMap<BlockId, BlockId> = HashMap::new();
        idom.insert(entry, entry);
        let intersect = |idom: &HashMap<BlockId, BlockId>,
                         rpo_index: &HashMap<BlockId, usize>,
                         mut a: BlockId,
                         mut b: BlockId| {
            while a != b {
                while rpo_index[&a] > rpo_index[&b] {
                    a = idom[&a];
                }
                while rpo_index[&b] > rpo_index[&a] {
                    b = idom[&b];
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in preds.get(&b).map(|v| v.as_slice()).unwrap_or(&[]) {
                    if !idom.contains_key(&p) {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_index, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom.get(&b) != Some(&ni) {
                        idom.insert(b, ni);
                        changed = true;
                    }
                }
            }
        }
        DomTree {
            idom,
            rpo_index,
            entry,
        }
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.rpo_index.contains_key(&b) {
            // Unreachable blocks are dominated by everything by convention.
            return true;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.entry {
                return false;
            }
            match self.idom.get(&cur) {
                Some(&next) if next != cur => cur = next,
                _ => return false,
            }
        }
    }

    /// Whether `b` is reachable from the region entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index.contains_key(&b)
    }
}

/// Dominance info for a whole body (all regions).
#[derive(Debug)]
pub struct DomInfo {
    trees: HashMap<RegionId, DomTree>,
}

impl DomInfo {
    /// Computes dominance for every region in `body`.
    pub fn compute(body: &Body) -> DomInfo {
        let mut trees = HashMap::new();
        for (i, r) in body.regions.iter().enumerate() {
            if r.blocks.is_empty() {
                continue;
            }
            let id = RegionId(i as u32);
            trees.insert(id, DomTree::compute(body, id));
        }
        DomInfo { trees }
    }

    /// The tree for `region`, if it has blocks.
    pub fn tree(&self, region: RegionId) -> Option<&DomTree> {
        self.trees.get(&region)
    }

    /// Whether the definition of `v` properly dominates `user` — including
    /// the cross-region rule (values of enclosing regions are visible inside
    /// nested regions).
    pub fn value_dominates_op(&self, body: &Body, v: ValueId, user: OpId) -> bool {
        let Some(def_block) = body.defining_block(v) else {
            return false;
        };
        let def_region = body.block_region(def_block);
        // Hoist the user to the ancestor at the def's region level.
        let mut user_op = user;
        let mut user_block = match body.ops[user.index()].parent() {
            Some(b) => b,
            None => return false,
        };
        loop {
            let user_region = body.block_region(user_block);
            if user_region == def_region {
                break;
            }
            match body.regions[user_region.index()].parent {
                Some(parent_op) => {
                    user_op = parent_op;
                    user_block = match body.ops[parent_op.index()].parent() {
                        Some(b) => b,
                        None => return false,
                    };
                }
                None => return false, // def nested deeper than use: not visible
            }
        }
        if user_block == def_block {
            match body.values[v.index()].def() {
                ValueDef::BlockArg(..) => true,
                ValueDef::OpResult(def_op, _) => {
                    if def_op == user_op {
                        return false;
                    }
                    let ops = &body.blocks[def_block.index()].ops;
                    let di = ops.iter().position(|&o| o == def_op);
                    let ui = ops.iter().position(|&o| o == user_op);
                    matches!((di, ui), (Some(d), Some(u)) if d < u)
                }
            }
        } else {
            match self.tree(def_region) {
                Some(t) => t.dominates(def_block, user_block),
                None => false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::ROOT_REGION;
    use crate::builder::Builder;
    use crate::types::Type;

    #[test]
    fn diamond_dominance() {
        // entry -> a, b; a -> join; b -> join.
        let (mut body, params) = Body::new(&[Type::I1]);
        let entry = body.entry_block();
        let a = body.new_block(ROOT_REGION, &[]);
        let b = body.new_block(ROOT_REGION, &[]);
        let join = body.new_block(ROOT_REGION, &[]);
        let mut bu = Builder::at_end(&mut body, entry);
        bu.cond_br(params[0], (a, vec![]), (b, vec![]));
        Builder::at_end(&mut body, a).br(join, vec![]);
        Builder::at_end(&mut body, b).br(join, vec![]);
        let mut bj = Builder::at_end(&mut body, join);
        let c = bj.const_i(0, Type::I64);
        bj.ret(c);
        let t = DomTree::compute(&body, ROOT_REGION);
        assert!(t.dominates(entry, join));
        assert!(t.dominates(entry, a));
        assert!(!t.dominates(a, join));
        assert!(!t.dominates(b, join));
        assert!(t.dominates(join, join));
        assert!(t.is_reachable(join));
    }

    #[test]
    fn chain_dominance() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let b1 = body.new_block(ROOT_REGION, &[]);
        let b2 = body.new_block(ROOT_REGION, &[]);
        Builder::at_end(&mut body, entry).br(b1, vec![]);
        Builder::at_end(&mut body, b1).br(b2, vec![]);
        let mut b = Builder::at_end(&mut body, b2);
        let c = b.const_i(0, Type::I64);
        b.ret(c);
        let t = DomTree::compute(&body, ROOT_REGION);
        assert!(t.dominates(b1, b2));
        assert!(t.dominates(entry, b2));
        assert!(!t.dominates(b2, b1));
    }

    #[test]
    fn unreachable_block() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let dead = body.new_block(ROOT_REGION, &[]);
        let mut b = Builder::at_end(&mut body, entry);
        let c = b.const_i(0, Type::I64);
        b.ret(c);
        let mut bd = Builder::at_end(&mut body, dead);
        bd.unreachable();
        let t = DomTree::compute(&body, ROOT_REGION);
        assert!(!t.is_reachable(dead));
    }

    #[test]
    fn same_block_def_use_order() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let c = b.const_i(1, Type::I64);
        let s = b.addi(c, c);
        b.ret(s);
        let info = DomInfo::compute(&body);
        let add_op = body.defining_op(s).unwrap();
        let const_op = body.defining_op(c).unwrap();
        assert!(info.value_dominates_op(&body, c, add_op));
        assert!(!info.value_dominates_op(&body, s, const_op));
    }

    #[test]
    fn outer_value_visible_in_nested_region() {
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let (rv, inner) = b.rgn_val(&[]);
        let mut ib = Builder::at_end(&mut body, inner);
        // Uses the outer function parameter inside the region.
        let ret_op = ib.lp_ret(params[0]);
        let mut b = Builder::at_end(&mut body, entry);
        b.rgn_run(rv, vec![]);
        let info = DomInfo::compute(&body);
        assert!(info.value_dominates_op(&body, params[0], ret_op));
    }

    #[test]
    fn inner_value_not_visible_outside() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let (rv, inner) = b.rgn_val(&[]);
        let mut ib = Builder::at_end(&mut body, inner);
        let hidden = ib.lp_int(5);
        ib.lp_ret(hidden);
        let mut b = Builder::at_end(&mut body, entry);
        let run = b.rgn_run(rv, vec![]);
        let info = DomInfo::compute(&body);
        assert!(!info.value_dominates_op(&body, hidden, run));
    }
}
