//! Ownership classes and per-block reference-count effect summaries.
//!
//! The λrc protocol (paper §II–III) makes every `lp` operation's effect on
//! an object's reference count a *static* property of the opcode and the
//! operand position. This module captures that table once:
//!
//! - [`classify`] assigns each SSA value an [`RcClass`] — whether the value
//!   *owns* a reference at its definition, merely *aliases* an object owned
//!   elsewhere, or is an untracked scalar.
//! - [`summarize_block`] folds one block's events into a composable
//!   [`RcEffect`] per value: the net count delta plus the minimum "slack"
//!   any prefix of the block reaches. Applying a summary to an incoming
//!   count answers, without re-walking the ops, whether the block can dip a
//!   count below its floor and what count leaves the block.
//!
//! The [`rc_check`](super::rc_check) linearity checker composes these
//! summaries along CFG paths; they are also reusable on their own (e.g. for
//! a future cross-block RC motion pass).

use crate::attr::{Attr, AttrKey};
use crate::body::{Body, ValueDef};
use crate::ids::{BlockId, OpId, Symbol, ValueId};
use crate::opcode::Opcode;
use crate::types::Type;
use std::collections::{HashMap, HashSet};

/// How a value participates in reference counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RcClass {
    /// The definition comes with a reference the defining scope owns:
    /// block arguments (including function parameters) and the results of
    /// calls and allocating ops (`lp.construct`, `lp.pap`, `lp.papextend`,
    /// `lp.bigint`, `lp.str`).
    Owned,
    /// The value aliases an object whose count is owned elsewhere:
    /// `lp.project`, `select`/`switch_val` over objects, `lp.global_load`.
    /// Its events are tracked, but anomalies are unprovable rather than
    /// definite errors — validity may derive from the aliased source.
    Alias,
    /// Not reference-counted: non-object values and `lp.int` results (the
    /// VM's unboxed scalars, on which inc/dec are no-ops).
    Scalar,
}

/// Classifies `v` per the table above.
pub fn classify(body: &Body, v: ValueId) -> RcClass {
    if body.value_type(v) != Type::Obj {
        return RcClass::Scalar;
    }
    match body.values[v.index()].def() {
        ValueDef::BlockArg(..) => RcClass::Owned,
        ValueDef::OpResult(op, _) => match body.ops[op.index()].opcode {
            Opcode::LpInt => RcClass::Scalar,
            Opcode::LpProject | Opcode::Select | Opcode::SwitchVal | Opcode::LpGlobalLoad => {
                RcClass::Alias
            }
            Opcode::Call
            | Opcode::LpConstruct
            | Opcode::LpPap
            | Opcode::LpPapExtend
            | Opcode::LpBigInt
            | Opcode::LpStr => RcClass::Owned,
            _ => RcClass::Scalar,
        },
    }
}

/// One value's collapsed event sequence within a block.
///
/// `net` is the total count delta. `min` is the lowest release floor any
/// prefix reaches: each inc/dec/consume event requires the running count to
/// stay ≥ 0, so a block entered with count `c` releases soundly iff
/// `c + min >= 0` and exits with `c + net`.
///
/// `min_borrow` is the analogous floor for borrow probes (`borrow_mask`
/// positions of extern calls): the count should be ≥ 1 while the callee
/// borrows, i.e. `c + min_borrow >= 0`. Probe failures are weaker evidence
/// than release failures — ownership may have legally moved into a
/// still-live container — so the checker reports them separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RcEffect {
    /// Total count delta across the block.
    pub net: i64,
    /// Minimum release slack over all prefixes (always ≤ 0).
    pub min: i64,
    /// Minimum borrow slack over all probe points (0 when never probed).
    pub min_borrow: i64,
}

impl RcEffect {
    fn add(&mut self, delta: i64) {
        self.net += delta;
        self.min = self.min.min(self.net);
    }

    /// A borrow probe: the count should be ≥ 1 here, without changing it.
    fn probe(&mut self) {
        self.min_borrow = self.min_borrow.min(self.net - 1);
    }
}

/// The RC events of one block, collapsed per value.
#[derive(Debug, Clone, Default)]
pub struct BlockSummary {
    /// Per-value effect for every non-scalar value the block touches
    /// (including the `+1` of values the block itself defines as owners).
    pub effects: HashMap<ValueId, RcEffect>,
    /// Calls carrying a `borrow_mask` whose callee is *not* extern — the VM
    /// only honors the mask on builtins, so these are protocol violations.
    pub mask_on_internal: Vec<OpId>,
}

/// Summarizes the RC events of `block`. `externs` names the module's extern
/// (builtin) functions: only their calls honor `borrow_mask`.
///
/// Successor-argument consumption is deliberately *excluded* — it is
/// per-edge, so the checker applies it while propagating along each edge.
pub fn summarize_block(body: &Body, block: BlockId, externs: &HashSet<Symbol>) -> BlockSummary {
    let mut summary = BlockSummary::default();
    let bump = |summary: &mut BlockSummary, v: ValueId, delta: i64| {
        if classify(body, v) != RcClass::Scalar {
            summary.effects.entry(v).or_default().add(delta);
        }
    };
    for &op in &body.blocks[block.index()].ops {
        let data = &body.ops[op.index()];
        match data.opcode {
            Opcode::LpInc => bump(&mut summary, data.operands()[0], 1),
            Opcode::LpDec => bump(&mut summary, data.operands()[0], -1),
            Opcode::Call => {
                let callee = data.attr(AttrKey::Callee).and_then(Attr::as_sym);
                let is_extern = callee.is_some_and(|s| externs.contains(&s));
                let mask = data
                    .attr(AttrKey::BorrowMask)
                    .and_then(Attr::as_int)
                    .unwrap_or(0);
                if mask != 0 && !is_extern {
                    summary.mask_on_internal.push(op);
                }
                for (i, &a) in data.operands().iter().enumerate() {
                    let borrowed = is_extern && i < 64 && mask & (1 << i) != 0;
                    if borrowed {
                        // The callee borrows: no consumption, but the caller
                        // must still hold a reference across the call.
                        if classify(body, a) == RcClass::Owned {
                            summary.effects.entry(a).or_default().probe();
                        }
                    } else {
                        bump(&mut summary, a, -1);
                    }
                }
                if let Some(r) = data.result() {
                    bump(&mut summary, r, 1);
                }
            }
            Opcode::TailCall => {
                for &a in data.operands() {
                    bump(&mut summary, a, -1);
                }
            }
            Opcode::LpConstruct | Opcode::LpPap | Opcode::LpPapExtend => {
                for &a in data.operands() {
                    bump(&mut summary, a, -1);
                }
                if let Some(r) = data.result() {
                    bump(&mut summary, r, 1);
                }
            }
            Opcode::LpBigInt | Opcode::LpStr => {
                if let Some(r) = data.result() {
                    bump(&mut summary, r, 1);
                }
            }
            Opcode::Return | Opcode::LpReturn | Opcode::LpGlobalStore => {
                bump(&mut summary, data.operands()[0], -1);
            }
            // Pure ops borrow their operands; br/cond_br/switch_br edge
            // arguments are applied per edge by the checker; unreachable
            // ends the path.
            _ => {}
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;

    #[test]
    fn classes_follow_the_table() {
        let (mut body, params) = Body::new(&[Type::Obj, Type::I64]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let obj = b.lp_construct(0, vec![]);
        let small = b.lp_int(3);
        let field = b.lp_project(obj, 0);
        b.lp_ret(obj);
        assert_eq!(classify(&body, params[0]), RcClass::Owned);
        assert_eq!(classify(&body, params[1]), RcClass::Scalar);
        assert_eq!(classify(&body, obj), RcClass::Owned);
        assert_eq!(classify(&body, small), RcClass::Scalar);
        assert_eq!(classify(&body, field), RcClass::Alias);
    }

    #[test]
    fn block_summary_collapses_events() {
        // inc p; dec p; dec p  =>  net -1, min -1 (the second dec dips one
        // below the incoming count).
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        b.lp_inc(params[0]);
        b.lp_dec(params[0]);
        b.lp_dec(params[0]);
        b.lp_ret(params[0]);
        let summary = summarize_block(&body, entry, &HashSet::new());
        let eff = summary.effects[&params[0]];
        // +1 -1 -1 (ret) -1 => net -2; prefixes 1,0,-1,-2 => min -2.
        assert_eq!(eff.net, -2);
        assert_eq!(eff.min, -2);
    }

    #[test]
    fn owned_definition_counts_plus_one() {
        let (mut body, _) = Body::new(&[]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let obj = b.lp_construct(1, vec![]);
        b.lp_ret(obj);
        let summary = summarize_block(&body, entry, &HashSet::new());
        let eff = summary.effects[&obj];
        assert_eq!(eff.net, 0); // +1 def, -1 return
        assert_eq!(eff.min, 0);
    }

    #[test]
    fn borrowed_call_args_probe_instead_of_consume() {
        let (mut body, params) = Body::new(&[Type::Obj]);
        let entry = body.entry_block();
        let mut b = Builder::at_end(&mut body, entry);
        let r = b.call(Symbol(7), vec![params[0]], Type::Obj);
        b.lp_ret(r);
        // Mark arg 0 borrowed.
        let call_op = body.defining_op(r).unwrap();
        body.ops[call_op.index()]
            .attrs
            .push((AttrKey::BorrowMask, Attr::Int(1)));

        // With the callee extern: probe (min -1 only if count 0), no net.
        let externs: HashSet<Symbol> = [Symbol(7)].into_iter().collect();
        let s = summarize_block(&body, entry, &externs);
        let eff = s.effects[&params[0]];
        assert_eq!(eff.net, 0);
        assert_eq!(eff.min, 0); // no release event
        assert_eq!(eff.min_borrow, -1); // probe at running count 0 demands >= 1
        assert!(s.mask_on_internal.is_empty());

        // With the callee internal: the mask is a protocol violation.
        let s2 = summarize_block(&body, entry, &HashSet::new());
        assert_eq!(s2.mask_on_internal, vec![call_op]);
        assert_eq!(s2.effects[&params[0]].net, -1); // consumed normally
    }
}
