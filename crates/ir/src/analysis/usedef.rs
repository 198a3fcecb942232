//! Use-def chains: every use site of every SSA value, indexed once.
//!
//! In SSA form, reaching definitions degenerate to a lookup — each value has
//! exactly one definition ([`crate::body::ValueDef`]) and it dominates every
//! use — so the interesting direction is def→uses. [`Body::users_of`] scans
//! the whole arena per query; [`UseDefChains`] builds the full index in one
//! walk and also records *where* each use sits (operand slot vs.
//! successor-argument slot), which per-op rewrites need.

use crate::body::{Body, ValueDef};
use crate::ids::{BlockId, OpId, ValueId};
use std::collections::HashMap;

/// How a value is referenced at a use site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UseKind {
    /// The `index`-th operand of the op.
    Operand,
    /// The `index`-th flattened successor argument of the terminator
    /// (counting across successors in order).
    SuccessorArg,
}

/// One reference to a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UseSite {
    /// The op containing the use.
    pub op: OpId,
    /// The block containing `op`.
    pub block: BlockId,
    /// Position within the op's operand list or flattened successor args.
    pub index: u32,
    /// Operand or successor-argument use.
    pub kind: UseKind,
}

/// The def→uses index for one body.
#[derive(Debug, Clone, Default)]
pub struct UseDefChains {
    uses: HashMap<ValueId, Vec<UseSite>>,
}

impl UseDefChains {
    /// Indexes every live, attached op of `body` (all regions).
    pub fn compute(body: &Body) -> UseDefChains {
        let mut uses: HashMap<ValueId, Vec<UseSite>> = HashMap::new();
        for op in body.walk_ops() {
            let data = &body.ops[op.index()];
            let Some(block) = data.parent() else { continue };
            for (i, &v) in data.operands().iter().enumerate() {
                uses.entry(v).or_default().push(UseSite {
                    op,
                    block,
                    index: i as u32,
                    kind: UseKind::Operand,
                });
            }
            let mut flat = 0u32;
            for s in data.successors() {
                for &v in &s.args {
                    uses.entry(v).or_default().push(UseSite {
                        op,
                        block,
                        index: flat,
                        kind: UseKind::SuccessorArg,
                    });
                    flat += 1;
                }
            }
        }
        UseDefChains { uses }
    }

    /// All use sites of `v`, in walk order.
    pub fn uses_of(&self, v: ValueId) -> &[UseSite] {
        self.uses.get(&v).map(|u| u.as_slice()).unwrap_or(&[])
    }

    /// Whether `v` has no uses at all.
    pub fn is_unused(&self, v: ValueId) -> bool {
        self.uses_of(v).is_empty()
    }

    /// The unique definition of `v` — SSA's reaching-definitions answer.
    pub fn def_of(body: &Body, v: ValueId) -> ValueDef {
        body.values[v.index()].def()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::ROOT_REGION;
    use crate::builder::Builder;
    use crate::types::Type;

    #[test]
    fn operand_and_successor_uses_are_indexed() {
        let (mut body, params) = Body::new(&[Type::I64]);
        let entry = body.entry_block();
        let next = body.new_block(ROOT_REGION, &[Type::I64]);
        let mut b = Builder::at_end(&mut body, entry);
        let s = b.addi(params[0], params[0]);
        b.br(next, vec![s]);
        let nv = body.blocks[next.index()].args[0];
        Builder::at_end(&mut body, next).ret(nv);
        let ud = UseDefChains::compute(&body);

        let p_uses = ud.uses_of(params[0]);
        assert_eq!(p_uses.len(), 2);
        assert!(p_uses
            .iter()
            .all(|u| u.kind == UseKind::Operand && u.block == entry));
        assert_eq!(p_uses[0].index, 0);
        assert_eq!(p_uses[1].index, 1);

        let s_uses = ud.uses_of(s);
        assert_eq!(s_uses.len(), 1);
        assert_eq!(s_uses[0].kind, UseKind::SuccessorArg);
        assert_eq!(s_uses[0].index, 0);

        assert!(!ud.is_unused(nv));
        match UseDefChains::def_of(&body, s) {
            crate::body::ValueDef::OpResult(op, 0) => {
                assert_eq!(body.ops[op.index()].opcode, crate::opcode::Opcode::AddI)
            }
            other => panic!("unexpected def {other:?}"),
        }
    }

    #[test]
    fn unused_value_reports_empty() {
        let (mut body, params) = Body::new(&[Type::I64, Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        b.ret(params[0]);
        let ud = UseDefChains::compute(&body);
        assert!(ud.is_unused(params[1]));
        assert_eq!(ud.uses_of(params[0]).len(), 1);
    }
}
