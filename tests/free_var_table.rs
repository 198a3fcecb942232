//! `insert_rc`'s free-variable table agrees with `Expr::free_vars`.
//!
//! RC insertion answers every "is this variable still needed?" question
//! from a [`FreeVarTable`] built bottom-up once per function. This suite
//! checks that table row for row against the reference
//! [`Expr::free_vars`], at every sub-expression of every function of the
//! 648-program conformance corpus and the eight workloads — both as parsed
//! and after the simplifier, since `insert_rc` sees simplified programs.

use lambda_ssa::driver::conformance::full_corpus;
use lambda_ssa::driver::workloads::{all, Scale};
use lambda_ssa::lambda::ast::{Expr, Program, VarId};
use lambda_ssa::lambda::rc::FreeVarTable;
use lambda_ssa::lambda::{parse_program, simplify_program, SimplifyOptions};
use std::collections::BTreeSet;

/// `e` and its sub-expressions in the table's row order: a node, then its
/// children (`join`: join body, scope body; `case`: arms, default).
fn preorder<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    out.push(e);
    match e {
        Expr::Let { body, .. } | Expr::Inc { body, .. } | Expr::Dec { body, .. } => {
            preorder(body, out)
        }
        Expr::LetJoin { jp_body, body, .. } => {
            preorder(jp_body, out);
            preorder(body, out);
        }
        Expr::Case { alts, default, .. } => {
            for arm in alts.iter().map(|a| &a.body).chain(default.as_deref()) {
                preorder(arm, out);
            }
        }
        Expr::Jump { .. } | Expr::Ret(_) => {}
    }
}

/// Compares every row of every function; returns the rows compared.
fn check_program(name: &str, p: &Program) -> usize {
    let mut rows = 0;
    for f in &p.fns {
        let table = FreeVarTable::new(f);
        let mut nodes = Vec::new();
        preorder(&f.body, &mut nodes);
        assert_eq!(table.len(), nodes.len(), "{name} @{}: row count", f.name);
        for (row, sub) in nodes.iter().enumerate() {
            let got: BTreeSet<VarId> = table.vars(row).collect();
            assert_eq!(
                got,
                sub.free_vars(),
                "{name} @{}: row {row} ({sub})",
                f.name
            );
            for v in 0..f.next_var {
                assert_eq!(table.contains(row, v), got.contains(&v));
            }
        }
        rows += nodes.len();
    }
    rows
}

fn check_both(name: &str, p: &Program) -> usize {
    let simplified = simplify_program(p, SimplifyOptions::all());
    check_program(name, p) + check_program(name, &simplified)
}

#[test]
fn table_matches_free_vars_on_the_corpus() {
    let corpus = full_corpus(648, 0x5e5a_2022);
    assert!(corpus.len() >= 648);
    let mut rows = 0;
    for case in &corpus {
        let p = parse_program(&case.src).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        rows += check_both(&case.name, &p);
    }
    assert!(rows > 10_000, "only {rows} rows compared");
}

#[test]
fn table_matches_free_vars_on_the_workloads() {
    let workloads = all(Scale::Test);
    assert_eq!(workloads.len(), 8);
    for w in &workloads {
        let p = parse_program(&w.src).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        check_both(w.name, &p);
    }
}
