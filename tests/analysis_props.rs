//! Property-based validation of the `lssa-ir` analysis framework.
//!
//! The worklist-solver liveness is checked against an independent oracle:
//! a naive per-value backward reachability scan that never touches the
//! generic dataflow machinery. For every compiled function body of a
//! generated program (full pipeline, flat CFG) and every SSA value, the
//! two must agree on live-in and live-out at every reachable block.
//!
//! The oracle: a value is live-in at block `b` iff `b` uses it without
//! defining it, or some successor is live-in and `b` does not define it —
//! computed one value at a time by plain backward BFS over the block
//! graph. SSA's single-definition property is what makes the block-level
//! formulation exact (a same-block use can never precede the definition).

use lambda_ssa::driver::conformance::generated;
use lambda_ssa::ir::analysis::{BlockGraph, Liveness};
use lambda_ssa::ir::body::Body;
use lambda_ssa::ir::ids::{BlockId, ValueId};
use lambda_ssa::lambda::{insert_rc, parse_program};
use lssa_core::pipeline::{compile, PipelineOptions};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};

/// Per-block use/def sets matching the liveness transfer's view: operands
/// and successor arguments are uses; op results and block arguments are
/// defs.
fn block_uses_defs(body: &Body, b: BlockId) -> (HashSet<ValueId>, HashSet<ValueId>) {
    let mut uses = HashSet::new();
    let mut defs: HashSet<ValueId> = body.blocks[b.index()].args.iter().copied().collect();
    for &op in &body.blocks[b.index()].ops {
        let data = &body.ops[op.index()];
        uses.extend(data.operands().iter().copied());
        for s in data.successors() {
            uses.extend(s.args.iter().copied());
        }
        defs.extend(data.results.iter().copied());
    }
    (uses, defs)
}

/// The oracle: per-value backward BFS. Returns (live_in, live_out) maps
/// over the reachable blocks.
fn naive_liveness(
    body: &Body,
    graph: &BlockGraph,
) -> (
    HashMap<BlockId, HashSet<ValueId>>,
    HashMap<BlockId, HashSet<ValueId>>,
) {
    let blocks: Vec<BlockId> = graph.rpo().to_vec();
    let sets: HashMap<BlockId, (HashSet<ValueId>, HashSet<ValueId>)> = blocks
        .iter()
        .map(|&b| (b, block_uses_defs(body, b)))
        .collect();
    let mut live_in: HashMap<BlockId, HashSet<ValueId>> =
        blocks.iter().map(|&b| (b, HashSet::new())).collect();
    let mut live_out = live_in.clone();
    let every_value: HashSet<ValueId> = sets
        .values()
        .flat_map(|(u, d)| u.iter().chain(d.iter()).copied())
        .collect();
    for v in every_value {
        // Seed: blocks that use v without defining it are live-in for v.
        let mut in_set: HashSet<BlockId> = HashSet::new();
        let mut queue: VecDeque<BlockId> = VecDeque::new();
        for &b in &blocks {
            let (uses, defs) = &sets[&b];
            if uses.contains(&v) && !defs.contains(&v) && in_set.insert(b) {
                queue.push_back(b);
            }
        }
        // Propagate: a live-in successor makes each predecessor live-out,
        // and live-in too unless the predecessor defines v.
        let mut out_set: HashSet<BlockId> = HashSet::new();
        while let Some(b) = queue.pop_front() {
            for &p in graph.preds(b) {
                out_set.insert(p);
                if !sets[&p].1.contains(&v) && in_set.insert(p) {
                    queue.push_back(p);
                }
            }
        }
        for b in in_set {
            live_in.get_mut(&b).expect("reachable").insert(v);
        }
        for b in out_set {
            live_out.get_mut(&b).expect("reachable").insert(v);
        }
    }
    (live_in, live_out)
}

fn check_function(body: &Body) -> Result<(), TestCaseError> {
    let graph = BlockGraph::root(body);
    let liveness = Liveness::compute(body, &graph);
    let (naive_in, naive_out) = naive_liveness(body, &graph);
    for &b in graph.rpo() {
        let solver_in = liveness.live_in(b).expect("reachable block has facts");
        let solver_out = liveness.live_out(b).expect("reachable block has facts");
        prop_assert_eq!(solver_in, &naive_in[&b], "live-in mismatch at {:?}", b);
        prop_assert_eq!(solver_out, &naive_out[&b], "live-out mismatch at {:?}", b);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(feature = "slow-tests") { 64 } else { 24 },
        .. ProptestConfig::default()
    })]

    /// Worklist liveness equals the naive per-value rescan on every
    /// function of every generated program, compiled flat.
    #[test]
    fn solver_liveness_matches_naive_oracle(seed in any::<u32>()) {
        let case = generated(1, seed as u64 ^ 0xda7a_f10f).remove(0);
        let program = parse_program(&case.src).expect("generated programs parse");
        let rc = insert_rc(&program);
        let module = compile(&rc, PipelineOptions::full());
        for f in &module.funcs {
            if let Some(body) = &f.body {
                check_function(body)?;
            }
        }
    }
}
