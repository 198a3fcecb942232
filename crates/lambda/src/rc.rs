//! Reference-count insertion: λpure → λrc.
//!
//! LEAN lowers its pure IR to λrc by inserting explicit `inc`/`dec`
//! instructions (§II-B). This module implements a simplified, provably
//! balanced version of that insertion under an *owned* calling convention:
//!
//! - every parameter and every `let`-bound value is **owned** by the current
//!   scope, and every control-flow path must consume each owned reference
//!   exactly once — either by transferring it (constructor field, call
//!   argument, jump argument, return) or by an explicit `dec`;
//! - `proj` *borrows* its operand and yields a borrowed field, which is
//!   immediately retained with `inc` (naive but sound — LEAN's borrow
//!   inference elides many of these; see DESIGN.md);
//! - `case` borrows its scrutinee (only the tag is read);
//! - values that die are released eagerly (`dec` at the earliest point the
//!   variable is no longer needed), matching LEAN's memory behaviour;
//! - join points own exactly their parameters (the AST's lambda-lifted
//!   join-point discipline makes this compositional).
//!
//! The balance property is validated dynamically by the reference
//! interpreter: after running a λrc program, the heap must be empty.
//!
//! Every decision above asks whether a variable is still needed, i.e. free
//! in the rest of the body. A [`FreeVarTable`] answers that in O(1): before
//! transforming a function, one bottom-up walk records the free variables
//! of every sub-expression as a bitset over `0..next_var`, and the
//! transformation visits sub-expressions in the same pre-order, so each
//! node's row is the next one. Calling [`Expr::free_vars`] at each `let`
//! instead would make the pass quadratic in the length of a `let` chain;
//! it is the reference the table is tested against.

use crate::ast::{Alt, Expr, FnDef, Program, Value, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// Inserts reference counting into every function of a λpure program.
///
/// # Panics
///
/// Panics if the program already contains `inc`/`dec` instructions.
pub fn insert_rc(program: &Program) -> Program {
    let fns = program
        .fns
        .iter()
        .map(|f| {
            assert!(
                !f.body.has_rc_ops(),
                "insert_rc on a function that already has RC ops: @{}",
                f.name
            );
            let table = FreeVarTable::new(f);
            let mut rc = Rc {
                fv: &table,
                next: 0,
            };
            let mut owned: BTreeSet<VarId> = f.params.iter().copied().collect();
            let body = rc.transform(&f.body, &mut owned);
            debug_assert_eq!(rc.next, table.len(), "every node visited once");
            FnDef {
                name: f.name.clone(),
                params: f.params.clone(),
                body,
                next_var: f.next_var,
                next_join: f.next_join,
            }
        })
        .collect();
    Program { fns }
}

/// The free variables of every sub-expression of one function body.
///
/// Row `i` belongs to the `i`-th sub-expression in pre-order: a node, then
/// its children in order (`join`: the join body, then the scope body;
/// `case`: the arms, then the default). Each row is a bitset of
/// `ceil(next_var / 64)` words, filled bottom-up in one walk, so building
/// the table costs O(nodes × next_var / 64) and each query O(1).
#[derive(Debug, Clone)]
pub struct FreeVarTable {
    /// Words per row.
    words: usize,
    /// Rows, back to back.
    bits: Vec<u64>,
}

impl FreeVarTable {
    /// Computes the table for `f`'s body.
    ///
    /// # Panics
    ///
    /// Panics if the body mentions a variable at or above `f.next_var`
    /// (which [`crate::wellformed::check_program`] rejects as E0116).
    pub fn new(f: &FnDef) -> FreeVarTable {
        let mut table = FreeVarTable {
            words: (f.next_var as usize).div_ceil(64).max(1),
            bits: Vec::new(),
        };
        table.fill(&f.body);
        table
    }

    /// Number of rows (sub-expressions).
    pub fn len(&self) -> usize {
        self.bits.len() / self.words
    }

    /// Whether the body has no rows (never: the body itself is row 0).
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Whether `v` is free in sub-expression `row`.
    pub fn contains(&self, row: usize, v: VarId) -> bool {
        let word = self.row(row).get(v as usize / 64).copied().unwrap_or(0);
        word >> (v % 64) & 1 == 1
    }

    /// The free variables of sub-expression `row`, ascending.
    pub fn vars(&self, row: usize) -> impl Iterator<Item = VarId> + '_ {
        self.row(row).iter().enumerate().flat_map(|(w, &word)| {
            (0..64u32)
                .filter(move |b| word >> b & 1 == 1)
                .map(move |b| w as u32 * 64 + b)
        })
    }

    fn row(&self, row: usize) -> &[u64] {
        &self.bits[row * self.words..(row + 1) * self.words]
    }

    fn row_mut(&mut self, row: usize) -> &mut [u64] {
        &mut self.bits[row * self.words..(row + 1) * self.words]
    }

    fn set(&mut self, row: usize, v: VarId) {
        let words = self.words;
        let Some(word) = self.row_mut(row).get_mut(v as usize / 64) else {
            panic!(
                "x{v} is at or above its function's next_var ({} words)",
                words
            );
        };
        *word |= 1 << (v % 64);
    }

    fn clear(&mut self, row: usize, v: VarId) {
        if let Some(word) = self.row_mut(row).get_mut(v as usize / 64) {
            *word &= !(1 << (v % 64));
        }
    }

    /// ORs row `from` into row `into` (`from > into`: a descendant).
    fn union_into(&mut self, into: usize, from: usize) {
        let w = self.words;
        let (head, tail) = self.bits.split_at_mut(from * w);
        for (dst, src) in head[into * w..(into + 1) * w].iter_mut().zip(&tail[..w]) {
            *dst |= src;
        }
    }

    /// Appends `e`'s row and its descendants' rows; returns `e`'s row.
    fn fill(&mut self, e: &Expr) -> usize {
        let row = self.len();
        self.bits.resize(self.bits.len() + self.words, 0);
        match e {
            Expr::Let { var, val, body } => {
                let b = self.fill(body);
                self.union_into(row, b);
                self.clear(row, *var);
                for v in val.operands() {
                    self.set(row, v);
                }
            }
            Expr::LetJoin {
                params,
                jp_body,
                body,
                ..
            } => {
                let j = self.fill(jp_body);
                self.union_into(row, j);
                for &p in params {
                    self.clear(row, p);
                }
                let b = self.fill(body);
                self.union_into(row, b);
            }
            Expr::Case {
                scrutinee,
                alts,
                default,
            } => {
                self.set(row, *scrutinee);
                for arm in alts.iter().map(|a| &a.body).chain(default.as_deref()) {
                    let a = self.fill(arm);
                    self.union_into(row, a);
                }
            }
            Expr::Jump { args, .. } => {
                for &v in args {
                    self.set(row, v);
                }
            }
            Expr::Ret(v) => self.set(row, *v),
            Expr::Inc { var, body, .. } | Expr::Dec { var, body } => {
                let b = self.fill(body);
                self.union_into(row, b);
                self.set(row, *var);
            }
        }
        row
    }
}

/// Wraps `e` in `dec` instructions for each variable in `vars`.
fn decs(vars: impl IntoIterator<Item = VarId>, e: Expr) -> Expr {
    let mut out = e;
    for v in vars {
        out = Expr::Dec {
            var: v,
            body: Box::new(out),
        };
    }
    out
}

/// Wraps `e` in an `inc var *n` when `n > 0`.
fn incs(var: VarId, n: u32, e: Expr) -> Expr {
    if n == 0 {
        e
    } else {
        Expr::Inc {
            var,
            n,
            body: Box::new(e),
        }
    }
}

/// Operands a value takes *ownership* of (with multiplicity). `Proj` and
/// `Var` borrow; everything else consumes.
fn owned_operands(v: &Value) -> Vec<VarId> {
    match v {
        Value::Var(_) | Value::Proj { .. } => vec![],
        Value::LitInt(_) | Value::LitBig(_) | Value::LitStr(_) => vec![],
        Value::Ctor { args, .. } | Value::Call { args, .. } | Value::Pap { args, .. } => {
            args.clone()
        }
        Value::App { closure, args } => {
            let mut out = vec![*closure];
            out.extend(args);
            out
        }
    }
}

fn multiset(vars: impl IntoIterator<Item = VarId>) -> BTreeMap<VarId, u32> {
    let mut m = BTreeMap::new();
    for v in vars {
        *m.entry(v).or_insert(0) += 1;
    }
    m
}

/// One function's transformation: the table, and the row of the next node
/// to visit.
struct Rc<'t> {
    fv: &'t FreeVarTable,
    next: usize,
}

impl Rc<'_> {
    /// Transforms `e` so that every path consumes exactly the references in
    /// `owned`. On return, `owned` is left in an unspecified state (callers pass
    /// clones across branches).
    fn transform(&mut self, e: &Expr, owned: &mut BTreeSet<VarId>) -> Expr {
        self.next += 1;
        match e {
            Expr::Ret(x) => {
                let mut rest: Vec<VarId> = owned.iter().copied().filter(|v| v != x).collect();
                rest.reverse();
                if owned.contains(x) {
                    decs(rest, Expr::Ret(*x))
                } else {
                    // Borrowed return value: retain it first.
                    decs(rest, incs(*x, 1, Expr::Ret(*x)))
                }
            }
            Expr::Jump { label, args } => {
                let counts = multiset(args.iter().copied());
                let mut out = Expr::Jump {
                    label: *label,
                    args: args.clone(),
                };
                let mut consumed: BTreeSet<VarId> = BTreeSet::new();
                for (&a, &m) in &counts {
                    if owned.contains(&a) {
                        out = incs(a, m - 1, out);
                        consumed.insert(a);
                    } else {
                        out = incs(a, m, out);
                    }
                }
                let rest: Vec<VarId> = owned
                    .iter()
                    .copied()
                    .filter(|v| !consumed.contains(v))
                    .collect();
                decs(rest, out)
            }
            Expr::Case {
                scrutinee,
                alts,
                default,
            } => {
                // The case borrows the scrutinee; each arm independently
                // consumes the full owned set.
                let alts = alts
                    .iter()
                    .map(|alt| {
                        let mut arm_owned = owned.clone();
                        let body = self.shed_then_transform(&alt.body, &mut arm_owned);
                        Alt { tag: alt.tag, body }
                    })
                    .collect();
                let default = default.as_ref().map(|d| {
                    let mut arm_owned = owned.clone();
                    Box::new(self.shed_then_transform(d, &mut arm_owned))
                });
                Expr::Case {
                    scrutinee: *scrutinee,
                    alts,
                    default,
                }
            }
            Expr::LetJoin {
                label,
                params,
                jp_body,
                body,
            } => {
                let mut jp_owned: BTreeSet<VarId> = params.iter().copied().collect();
                let jp_body = self.shed_then_transform(jp_body, &mut jp_owned);
                let body = self.transform(body, owned);
                Expr::LetJoin {
                    label: *label,
                    params: params.clone(),
                    jp_body: Box::new(jp_body),
                    body: Box::new(body),
                }
            }
            Expr::Let { var, val, body } => {
                let x = *var;
                // The body is the next node in pre-order.
                let (fv, body_row) = (self.fv, self.next);
                let live = |v: &VarId| fv.contains(body_row, *v);
                // 1. Ownership accounting for the value's consumed operands.
                let counts = multiset(owned_operands(val));
                let mut pre_incs: Vec<(VarId, u32)> = Vec::new();
                for (&a, &m) in &counts {
                    if owned.contains(&a) {
                        if live(&a) {
                            // Still needed later: keep ownership, add m refs.
                            pre_incs.push((a, m));
                        } else {
                            // Last use: transfer one ref, add the rest.
                            pre_incs.push((a, m - 1));
                            owned.remove(&a);
                        }
                    } else {
                        pre_incs.push((a, m));
                    }
                }
                // `let x = y` aliases: one more reference to y's object.
                if let Value::Var(y) = val {
                    if owned.contains(y) && !live(y) {
                        owned.remove(y); // transfer
                    } else {
                        pre_incs.push((*y, 1));
                    }
                }
                // 2. Projection results are borrowed: retain them.
                let is_proj = matches!(val, Value::Proj { .. });
                // 3. The binding itself becomes owned.
                owned.insert(x);
                // 4. Eagerly release anything that is now dead: owned vars that
                //    do not appear free in the body (including x if unused).
                let dead: Vec<VarId> = owned
                    .iter()
                    .copied()
                    .filter(|v| !live(v) && *v != x)
                    .collect();
                let x_dead = !live(&x);
                for d in &dead {
                    owned.remove(d);
                }
                if x_dead {
                    owned.remove(&x);
                }
                let tail = self.transform(body, owned);
                // Assemble from the inside out:
                //   incs; let x = v; [inc x]; [dec dead…]; [dec x]; tail
                let mut after = tail;
                if x_dead && !is_proj {
                    after = Expr::Dec {
                        var: x,
                        body: Box::new(after),
                    };
                }
                // A projection that is immediately dead is simply a borrow that
                // was never retained: no inc, no dec.
                after = decs(dead, after);
                if is_proj && !x_dead {
                    after = incs(x, 1, after);
                }
                let mut out = Expr::Let {
                    var: x,
                    val: val.clone(),
                    body: Box::new(after),
                };
                for (a, m) in pre_incs.into_iter().rev() {
                    out = incs(a, m, out);
                }
                out
            }
            Expr::Inc { .. } | Expr::Dec { .. } => {
                unreachable!("insert_rc input must be λpure")
            }
        }
    }

    /// Eagerly releases owned variables not free in `e`, then transforms.
    fn shed_then_transform(&mut self, e: &Expr, owned: &mut BTreeSet<VarId>) -> Expr {
        let row = self.next;
        let dead: Vec<VarId> = owned
            .iter()
            .copied()
            .filter(|&v| !self.fv.contains(row, v))
            .collect();
        for d in &dead {
            owned.remove(d);
        }
        let body = self.transform(e, owned);
        decs(dead, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::build::*;
    use crate::parse::parse_program;
    use crate::wellformed::check_program;

    #[test]
    fn unused_param_is_dropped() {
        // def k(x0, x1) := ret x0  — x1 must be dec'd.
        let p = Program {
            fns: vec![FnDef {
                name: "k".into(),
                params: vec![0, 1],
                body: ret(0),
                next_var: 2,
                next_join: 0,
            }],
        };
        let rc = insert_rc(&p);
        let text = rc.fns[0].body.to_string();
        assert!(text.contains("dec x1"), "{text}");
        assert!(!text.contains("dec x0"), "{text}");
    }

    #[test]
    fn duplicate_use_gets_inc() {
        // let x1 = ctor_0(x0, x0); ret x1 — x0 used twice as owned: one inc.
        let p = Program {
            fns: vec![FnDef {
                name: "dup".into(),
                params: vec![0],
                body: let_(
                    1,
                    Value::Ctor {
                        tag: 0,
                        args: vec![0, 0],
                    },
                    ret(1),
                ),
                next_var: 2,
                next_join: 0,
            }],
        };
        let rc = insert_rc(&p);
        let text = rc.fns[0].body.to_string();
        assert!(text.contains("inc x0"), "{text}");
    }

    #[test]
    fn use_then_live_keeps_ownership() {
        // let x1 = ctor(x0); let x2 = ctor(x0); ret x2 —
        // first use incs (x0 live after), second transfers.
        let p = Program {
            fns: vec![FnDef {
                name: "f".into(),
                params: vec![0],
                body: let_(
                    1,
                    Value::Ctor {
                        tag: 0,
                        args: vec![0],
                    },
                    let_(
                        2,
                        Value::Ctor {
                            tag: 1,
                            args: vec![0],
                        },
                        // x1 is dead here; it must be dec'd.
                        ret(2),
                    ),
                ),
                next_var: 3,
                next_join: 0,
            }],
        };
        let rc = insert_rc(&p);
        let text = rc.fns[0].body.to_string();
        // Exactly one inc of x0 (before the first ctor).
        assert_eq!(text.matches("inc x0").count(), 1, "{text}");
        // x1 unused: dec'd.
        assert!(text.contains("dec x1"), "{text}");
    }

    #[test]
    fn proj_results_are_retained_before_scrutinee_release() {
        let src = r#"
inductive List := Nil | Cons(head, tail)
def head_or_zero(xs) :=
  case xs of
  | Nil => 0
  | Cons(h, t) => h
  end
"#;
        let p = parse_program(src).unwrap();
        check_program(&p).unwrap();
        let rc = insert_rc(&p);
        let f = rc.fn_by_name("head_or_zero").unwrap();
        let text = f.body.to_string();
        // In the Cons arm: h is projected then inc'd; the scrutinee dec'd.
        assert!(text.contains("inc x"), "{text}");
        assert!(text.contains("dec x0"), "{text}");
        // The inc of the projected head must appear before the dec of the
        // scrutinee (which is the last dec of x0 in the Cons arm).
        let inc_pos = text.find("inc x").expect(&text);
        let dec_pos = text.rfind("dec x0").expect(&text);
        assert!(inc_pos < dec_pos, "{text}");
    }

    #[test]
    fn case_arms_balance_independently() {
        let src = r#"
inductive Option := None | Some(v)
def f(o, extra) :=
  case o of
  | None => extra
  | Some(v) => v + extra
  end
"#;
        let p = parse_program(src).unwrap();
        let rc = insert_rc(&p);
        let text = rc.fn_by_name("f").unwrap().body.to_string();
        // The None arm must release the scrutinee o (x0).
        assert!(text.contains("dec x0"), "{text}");
    }

    #[test]
    fn rc_program_is_still_wellformed() {
        let src = r#"
inductive List := Nil | Cons(head, tail)
def append(xs, ys) :=
  case xs of
  | Nil => ys
  | Cons(h, t) => Cons(h, append(t, ys))
  end
def main() := append(Cons(1, Nil), Cons(2, Nil))
"#;
        let p = parse_program(src).unwrap();
        check_program(&p).unwrap();
        let rc = insert_rc(&p);
        check_program(&rc).unwrap();
        // append's Cons arm duplicates nothing, but the Nil arm must release
        // the scrutinee; some function carries RC ops.
        assert!(rc.fns.iter().any(|f| f.body.has_rc_ops()));
    }

    #[test]
    #[should_panic(expected = "already has RC ops")]
    fn double_insertion_panics() {
        let p = Program {
            fns: vec![FnDef {
                name: "f".into(),
                params: vec![0],
                body: Expr::Inc {
                    var: 0,
                    n: 1,
                    body: Box::new(ret(0)),
                },
                next_var: 1,
                next_join: 0,
            }],
        };
        insert_rc(&p);
    }
}
