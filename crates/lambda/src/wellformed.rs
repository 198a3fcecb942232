//! Well-formedness checking for λpure/λrc programs.
//!
//! Enforces the invariants the rest of the compiler relies on:
//!
//! 1. every variable use is in scope;
//! 2. every binder is globally unique within its function (SSA-like);
//! 3. `jump` targets an enclosing join point with matching argument count;
//! 4. join-point bodies reference only their own parameters (this crate
//!    lambda-lifts join points locally — see [`crate::ast`]);
//! 5. calls name known functions (or `lean_*` runtime builtins) with the
//!    right arity; partial applications under-apply; closure applications
//!    pass at least one argument.

use crate::ast::{Expr, FnDef, JoinId, Program, Value, VarId};
use crate::scope::{Scope, Shadowed};
use lssa_rt::Builtin;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Stable diagnostic codes for wellformedness violations.
///
/// Shared with the `lssa-syntax` text frontend, so `lssa check` (syntax-level
/// checking with spans) and `lssa run` (AST-level checking) report the same
/// code for the same defect.
pub mod codes {
    /// Use of a variable that is not in scope.
    pub const OUT_OF_SCOPE: &str = "E0101";
    /// A variable bound more than once within one function.
    pub const REBOUND: &str = "E0102";
    /// Jump to a join point that is not in scope.
    pub const UNKNOWN_JOIN: &str = "E0103";
    /// Jump argument count differs from the join point's parameter count.
    pub const JUMP_ARITY: &str = "E0104";
    /// A join-point body references a variable that is not one of its
    /// parameters.
    pub const JOIN_CAPTURE: &str = "E0105";
    /// Call of an unknown top-level function.
    pub const UNKNOWN_FUNCTION: &str = "E0106";
    /// Call argument count differs from the callee's arity.
    pub const CALL_ARITY: &str = "E0107";
    /// Call of an unknown `lean_*` runtime builtin.
    pub const UNKNOWN_BUILTIN: &str = "E0108";
    /// Builtin argument count differs from the builtin's arity.
    pub const BUILTIN_ARITY: &str = "E0109";
    /// Partial application that does not under-apply, or of an unknown
    /// function.
    pub const BAD_PAP: &str = "E0110";
    /// Closure application with no arguments.
    pub const EMPTY_APP: &str = "E0111";
    /// Bigint literal that is not a nonempty string of decimal digits.
    pub const BAD_BIGINT: &str = "E0112";
    /// Two `case` arms with the same constructor tag.
    pub const DUPLICATE_TAG: &str = "E0113";
    /// A `case` with neither arms nor a default.
    pub const EMPTY_CASE: &str = "E0114";
    /// Two top-level functions with the same name.
    pub const DUPLICATE_FUNCTION: &str = "E0115";
    /// A variable id at or above the function's declared `next_var` bound.
    pub const VAR_BOUND: &str = "E0116";
}

/// A well-formedness violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WfError {
    /// The function in which the violation occurred.
    pub func: String,
    /// Stable diagnostic code (see [`codes`]).
    pub code: &'static str,
    /// Description.
    pub message: String,
}

impl fmt::Display for WfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}: {}", self.func, self.message)
    }
}

impl std::error::Error for WfError {}

/// Checks a whole program.
///
/// # Errors
///
/// Returns all violations found.
pub fn check_program(p: &Program) -> Result<(), Vec<WfError>> {
    let mut errors = Vec::new();
    // Name → arity; the first definition of a name wins, as in
    // `Program::arity_of`.
    let mut arities: HashMap<&str, usize> = HashMap::with_capacity(p.fns.len());
    for f in &p.fns {
        if arities.contains_key(f.name.as_str()) {
            errors.push(WfError {
                func: f.name.clone(),
                code: codes::DUPLICATE_FUNCTION,
                message: "duplicate function name".to_string(),
            });
        } else {
            arities.insert(&f.name, f.arity());
        }
    }
    let mut scope = Scope::default();
    for f in &p.fns {
        let mut c = Checker {
            arities: &arities,
            func: f,
            errors: &mut errors,
            scope: &mut scope,
            joins: HashMap::new(),
            out_of_scope: 0,
        };
        c.check_fn();
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Checks one function: a single walk with one [`Scope`], binding at each
/// binder and undoing the binding after its body.
struct Checker<'a> {
    arities: &'a HashMap<&'a str, usize>,
    func: &'a FnDef,
    errors: &'a mut Vec<WfError>,
    scope: &'a mut Scope,
    /// Jumpable join labels → arity.
    joins: HashMap<JoinId, usize>,
    /// E0101 errors reported so far (a join body without any cannot
    /// capture).
    out_of_scope: usize,
}

impl Checker<'_> {
    fn check_fn(&mut self) {
        self.scope.begin_function();
        for &p in &self.func.params {
            // Parameters stay bound until the next function begins.
            let (_, rebound) = self.scope.bind(p);
            if rebound {
                self.error(codes::REBOUND, format!("parameter x{p} bound twice"));
            }
        }
        let func = self.func;
        self.check_expr(&func.body);
    }

    fn error(&mut self, code: &'static str, message: String) {
        self.errors.push(WfError {
            func: self.func.name.clone(),
            code,
            message,
        });
    }

    fn check_var(&mut self, v: VarId) {
        if !self.scope.contains(v) {
            self.out_of_scope += 1;
            self.error(codes::OUT_OF_SCOPE, format!("use of x{v} out of scope"));
        }
        if v >= self.func.next_var {
            self.error(
                codes::VAR_BOUND,
                format!(
                    "x{v} exceeds the function's declared variable bound {}",
                    self.func.next_var
                ),
            );
        }
    }

    /// Brings `v` into scope; the caller unbinds it after the binder's body.
    fn bind(&mut self, v: VarId) -> Shadowed {
        let (prev, rebound) = self.scope.bind(v);
        if rebound {
            self.error(codes::REBOUND, format!("x{v} bound more than once"));
        }
        prev
    }

    fn check_value(&mut self, val: &Value) {
        for v in val.operands() {
            self.check_var(v);
        }
        match val {
            Value::Call { func, args } => {
                if let Some(stripped) = func.strip_prefix("lean_") {
                    let _ = stripped;
                    match func.parse::<Builtin>() {
                        Ok(b) => {
                            if b.arity() != args.len() {
                                self.error(
                                    codes::BUILTIN_ARITY,
                                    format!(
                                        "builtin {func} expects {} args, got {}",
                                        b.arity(),
                                        args.len()
                                    ),
                                );
                            }
                        }
                        Err(_) => {
                            self.error(codes::UNKNOWN_BUILTIN, format!("unknown builtin {func}"))
                        }
                    }
                } else {
                    match self.arities.get(func.as_str()).copied() {
                        Some(a) if a == args.len() => {}
                        Some(a) => self.error(
                            codes::CALL_ARITY,
                            format!("call to @{func} with {} args (arity {a})", args.len()),
                        ),
                        None => self.error(
                            codes::UNKNOWN_FUNCTION,
                            format!("call to unknown function @{func}"),
                        ),
                    }
                }
            }
            Value::Pap { func, args } => match self.arities.get(func.as_str()).copied() {
                Some(a) if args.len() < a => {}
                Some(a) => self.error(
                    codes::BAD_PAP,
                    format!(
                        "pap of @{func} with {} args must under-apply (arity {a})",
                        args.len()
                    ),
                ),
                None => self.error(codes::BAD_PAP, format!("pap of unknown function @{func}")),
            },
            Value::App { args, .. } if args.is_empty() => {
                self.error(
                    codes::EMPTY_APP,
                    "closure application with no arguments".to_string(),
                );
            }
            Value::LitBig(s) if (s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit())) => {
                self.error(codes::BAD_BIGINT, format!("malformed bigint literal {s:?}"));
            }
            _ => {}
        }
    }

    fn check_expr(&mut self, e: &Expr) {
        match e {
            Expr::Let { var, val, body } => {
                self.check_value(val);
                let prev = self.bind(*var);
                self.check_expr(body);
                self.scope.unbind(*var, prev);
            }
            Expr::LetJoin {
                label,
                params,
                jp_body,
                body,
            } => {
                // Join body sees only its parameters: a fresh scope frame.
                let outer = self.scope.enter_frame();
                let shadowed: Vec<Shadowed> = params.iter().map(|&p| self.bind(p)).collect();
                // The join point itself is not in scope inside its own body
                // (no recursive joins in λpure).
                let out_of_scope = self.out_of_scope;
                self.check_expr(jp_body);
                for (&p, prev) in params.iter().zip(shadowed).rev() {
                    self.scope.unbind(p, prev);
                }
                self.scope.exit_frame(outer);
                // A join body whose uses were all in scope references only
                // its parameters; otherwise name the first var that is not.
                let extra = if self.out_of_scope > out_of_scope {
                    jp_body
                        .free_vars()
                        .into_iter()
                        .find(|v| !params.contains(v))
                } else {
                    None
                };
                if let Some(v) = extra {
                    self.error(
                        codes::JOIN_CAPTURE,
                        format!(
                            "join point j{label} body references x{v}, which is not a parameter"
                        ),
                    );
                }
                let shadowed_join = self.joins.insert(*label, params.len());
                self.check_expr(body);
                match shadowed_join {
                    Some(arity) => self.joins.insert(*label, arity),
                    None => self.joins.remove(label),
                };
            }
            Expr::Case {
                scrutinee,
                alts,
                default,
            } => {
                self.check_var(*scrutinee);
                if alts.is_empty() && default.is_none() {
                    self.error(codes::EMPTY_CASE, "case with no arms".to_string());
                }
                let mut seen = HashSet::new();
                for alt in alts {
                    if !seen.insert(alt.tag) {
                        self.error(
                            codes::DUPLICATE_TAG,
                            format!("duplicate case tag {}", alt.tag),
                        );
                    }
                    self.check_expr(&alt.body);
                }
                if let Some(d) = default {
                    self.check_expr(d);
                }
            }
            Expr::Jump { label, args } => {
                for &a in args {
                    self.check_var(a);
                }
                match self.joins.get(label) {
                    Some(&arity) if arity == args.len() => {}
                    Some(&arity) => self.error(
                        codes::JUMP_ARITY,
                        format!(
                            "jump to j{label} with {} args (expects {arity})",
                            args.len()
                        ),
                    ),
                    None => self.error(
                        codes::UNKNOWN_JOIN,
                        format!("jump to unknown join point j{label}"),
                    ),
                }
            }
            Expr::Ret(v) => self.check_var(*v),
            Expr::Inc { var, body, .. } | Expr::Dec { var, body } => {
                self.check_var(*var);
                self.check_expr(body);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::build::*;
    use crate::parse::parse_program;

    fn single_fn(body: Expr, params: Vec<VarId>, next_var: VarId) -> Program {
        Program {
            fns: vec![FnDef {
                name: "f".into(),
                params,
                body,
                next_var,
                next_join: 8,
            }],
        }
    }

    #[test]
    fn valid_program_passes() {
        let src = r#"
inductive List := Nil | Cons(head, tail)
def length(xs) :=
  case xs of
  | Nil => 0
  | Cons(h, t) => 1 + length(t)
  end
"#;
        let p = parse_program(src).unwrap();
        check_program(&p).unwrap();
    }

    #[test]
    fn out_of_scope_use_rejected() {
        let p = single_fn(ret(5), vec![0], 10);
        let errs = check_program(&p).unwrap_err();
        assert!(errs[0].message.contains("out of scope"));
    }

    #[test]
    fn double_binding_rejected() {
        let body = let_(1, Value::LitInt(1), let_(1, Value::LitInt(2), ret(1)));
        let p = single_fn(body, vec![0], 10);
        let errs = check_program(&p).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("bound more than once")));
    }

    #[test]
    fn bindings_end_with_their_body() {
        let codes = |body: Expr| -> Vec<&'static str> {
            match check_program(&single_fn(body, vec![0], 10)) {
                Ok(()) => vec![],
                Err(errs) => errs.iter().map(|e| e.code).collect(),
            }
        };
        // x1 belongs to the first arm only.
        let arms = vec![(0, let_(1, Value::LitInt(1), ret(1))), (1, ret(1))];
        assert_eq!(codes(case(0, arms, None)), vec![codes::OUT_OF_SCOPE]);
        // Join parameters are not in scope in the join's scope body; a
        // parameter rebinding x0 ends with the join body.
        let join = |param: VarId, body: Expr| Expr::LetJoin {
            label: 0,
            params: vec![param],
            jp_body: Box::new(ret(param)),
            body: Box::new(body),
        };
        assert_eq!(codes(join(1, ret(1))), vec![codes::OUT_OF_SCOPE]);
        assert_eq!(codes(join(0, ret(0))), vec![codes::REBOUND]);
    }

    #[test]
    fn join_capture_rejected() {
        // join j0() = ret x0 — x0 is not a parameter of the join point.
        let body = Expr::LetJoin {
            label: 0,
            params: vec![],
            jp_body: Box::new(ret(0)),
            body: Box::new(Expr::Jump {
                label: 0,
                args: vec![],
            }),
        };
        let p = single_fn(body, vec![0], 10);
        let errs = check_program(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("not a parameter")));
    }

    #[test]
    fn jump_arity_mismatch_rejected() {
        let body = Expr::LetJoin {
            label: 0,
            params: vec![1],
            jp_body: Box::new(ret(1)),
            body: Box::new(Expr::Jump {
                label: 0,
                args: vec![],
            }),
        };
        let p = single_fn(body, vec![0], 10);
        let errs = check_program(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("jump to j0")));
    }

    #[test]
    fn unknown_call_rejected() {
        let body = let_(
            1,
            Value::Call {
                func: "ghost".into(),
                args: vec![0],
            },
            ret(1),
        );
        let p = single_fn(body, vec![0], 10);
        let errs = check_program(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("unknown function")));
    }

    #[test]
    fn builtin_arity_checked() {
        let body = let_(
            1,
            Value::Call {
                func: "lean_nat_add".into(),
                args: vec![0],
            },
            ret(1),
        );
        let p = single_fn(body, vec![0], 10);
        let errs = check_program(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("expects 2 args")));
    }

    #[test]
    fn unknown_builtin_rejected() {
        let body = let_(
            1,
            Value::Call {
                func: "lean_frobnicate".into(),
                args: vec![0],
            },
            ret(1),
        );
        let p = single_fn(body, vec![0], 10);
        let errs = check_program(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("unknown builtin")));
    }

    #[test]
    fn duplicate_case_tags_rejected() {
        let body = case(0, vec![(0, ret(0)), (0, ret(0))], None);
        let p = single_fn(body, vec![0], 10);
        let errs = check_program(&p).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("duplicate case tag")));
    }

    #[test]
    fn pap_must_under_apply() {
        let mut p = single_fn(
            let_(
                1,
                Value::Pap {
                    func: "f".into(),
                    args: vec![0],
                },
                ret(1),
            ),
            vec![0],
            10,
        );
        // f has arity 1; pap with 1 arg is not under-applying.
        let errs = check_program(&p).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("under-apply")),
            "{errs:?}"
        );
        // With arity 2 it is fine.
        p.fns[0].params = vec![0, 9];
        p.fns[0].body = let_(
            1,
            Value::Pap {
                func: "f".into(),
                args: vec![0],
            },
            ret(1),
        );
        check_program(&p).unwrap();
    }
}
