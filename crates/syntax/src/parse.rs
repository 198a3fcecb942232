//! Lowering `.lssa` S-expressions to the [`lssa_lambda`] AST, with inline
//! wellformedness checking.
//!
//! The grammar (see the repository README for the full EBNF):
//!
//! ```text
//! program := def*
//! def     := "(" "def" name "(" var* ")" expr ")"
//! expr    := "(" "let"  var value expr ")"
//!          | "(" "join" join "(" var* ")" expr expr ")"
//!          | "(" "case" var arm+ ")"        arm := "(" (tag | "else") expr ")"
//!          | "(" "jump" join var* ")"
//!          | "(" "ret"  var ")"
//!          | "(" "inc"  var nat expr ")"
//!          | "(" "dec"  var expr ")"
//! value   := var | int | string
//!          | "(" "big"  digits | string ")"
//!          | "(" "ctor" tag var* ")"
//!          | "(" "proj" nat var ")"
//!          | "(" "call" name var* ")"
//!          | "(" "pap"  name var* ")"
//!          | "(" "app"  var var* ")"
//! var     := "x" digits          join := "j" digits
//! ```
//!
//! Lowering checks the same wellformedness rules as
//! [`lssa_lambda::wellformed::check_program`], but reports them as
//! [`Diagnostic`]s with precise source spans (the AST checker works on
//! location-free terms). The two checkers share their `E01xx` codes, so
//! `lssa check` and `lssa run` agree on what a defect is called.
//!
//! `next_var`/`next_join` of each [`FnDef`] are reconstructed as one past the
//! highest id mentioned anywhere in the function — exactly what the
//! programmatic lowering produces, which is what makes
//! `parse(print(p)) == p` hold structurally *and* on the id bounds.

use crate::diag::{Diagnostic, E_BAD_FORM, E_BAD_TOKEN};
use crate::sexp::{read, Sexp, SexpKind};
use crate::span::Span;
use lssa_lambda::ast::{Alt, Expr, FnDef, JoinId, Program, Value, VarId};
use lssa_lambda::scope::{Scope, Shadowed};
use lssa_lambda::wellformed::codes;
use lssa_rt::Builtin;
use std::collections::{HashMap, HashSet};

/// Result of parsing a `.lssa` source: the program (when structurally
/// recoverable) plus every diagnostic found.
///
/// `program` is `Some` whenever the text was *syntactically* complete, even
/// if wellformedness diagnostics were reported — the formatter needs exactly
/// that (reformatting an ill-scoped program is fine; reformatting half a
/// parse tree is not).
#[derive(Debug, Clone)]
pub struct ParseOutcome {
    /// The lowered program, absent when syntax errors made lowering lossy.
    pub program: Option<Program>,
    /// All diagnostics, in source order per phase (lexical, structural,
    /// wellformedness).
    pub diagnostics: Vec<Diagnostic>,
}

impl ParseOutcome {
    /// Whether no diagnostics at all were reported.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Parses strictly: a program is returned only when there are no
/// diagnostics of any kind.
///
/// # Errors
///
/// Returns every diagnostic found (never an empty list).
pub fn parse_program(src: &str) -> Result<Program, Vec<Diagnostic>> {
    let outcome = parse_source(src);
    match outcome.program {
        Some(p) if outcome.diagnostics.is_empty() => Ok(p),
        _ => Err(outcome.diagnostics),
    }
}

/// Checks `src`, returning all diagnostics (empty = wellformed program).
pub fn check_source(src: &str) -> Vec<Diagnostic> {
    parse_source(src).diagnostics
}

/// Parses leniently; see [`ParseOutcome`].
pub fn parse_source(src: &str) -> ParseOutcome {
    let (forest, mut diagnostics) = read(src);
    let structurally_clean = diagnostics.is_empty();
    let mut lowerer = Lowerer {
        diags: &mut diagnostics,
        structural_ok: structurally_clean,
        sigs: HashMap::new(),
        func: String::new(),
        scope: Scope::default(),
        max_var: None,
        max_join: None,
    };
    let program = lowerer.lower_program(&forest);
    let structural_ok = lowerer.structural_ok;
    ParseOutcome {
        program: structural_ok.then_some(program),
        diagnostics,
    }
}

struct Lowerer<'a> {
    diags: &'a mut Vec<Diagnostic>,
    /// False once any lexical/structural error was reported.
    structural_ok: bool,
    /// Top-level function name → arity (pass 1).
    sigs: HashMap<String, usize>,
    /// Name of the function currently being lowered (for notes).
    func: String,
    /// What is in scope, and what was bound before, in the current function.
    scope: Scope,
    max_var: Option<VarId>,
    max_join: Option<JoinId>,
}

impl Lowerer<'_> {
    // ---- diagnostics ------------------------------------------------------

    fn form_error(&mut self, span: Span, message: impl Into<String>) {
        self.structural_ok = false;
        self.diags.push(Diagnostic::new(E_BAD_FORM, message, span));
    }

    fn token_error(&mut self, span: Span, message: impl Into<String>) {
        self.structural_ok = false;
        self.diags.push(Diagnostic::new(E_BAD_TOKEN, message, span));
    }

    /// A wellformedness diagnostic, annotated with the enclosing function.
    fn wf(&mut self, code: &'static str, message: impl Into<String>, span: Span) {
        let note = format!("in function @{}", self.func);
        self.diags
            .push(Diagnostic::new(code, message, span).with_note(note));
    }

    // ---- token helpers ----------------------------------------------------

    fn parse_id(&mut self, sexp: &Sexp, prefix: char, what: &str) -> Option<u32> {
        let text = match sexp.as_atom() {
            Some(t) => t,
            None => {
                self.token_error(
                    sexp.span,
                    format!(
                        "expected {what} like `{prefix}0`, found {}",
                        sexp.describe()
                    ),
                );
                return None;
            }
        };
        let digits = text
            .strip_prefix(prefix)
            .filter(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()));
        let Some(digits) = digits else {
            self.token_error(
                sexp.span,
                format!("expected {what} like `{prefix}0`, found `{text}`"),
            );
            return None;
        };
        match digits.parse::<u32>() {
            Ok(id) => Some(id),
            Err(_) => {
                self.token_error(sexp.span, format!("{what} `{text}` is out of range"));
                None
            }
        }
    }

    fn parse_var(&mut self, sexp: &Sexp) -> Option<VarId> {
        let id = self.parse_id(sexp, 'x', "a variable")?;
        self.max_var = Some(self.max_var.map_or(id, |m| m.max(id)));
        Some(id)
    }

    fn parse_join(&mut self, sexp: &Sexp) -> Option<JoinId> {
        let id = self.parse_id(sexp, 'j', "a join label")?;
        self.max_join = Some(self.max_join.map_or(id, |m| m.max(id)));
        Some(id)
    }

    fn parse_u32(&mut self, sexp: &Sexp, what: &str) -> Option<u32> {
        let ok = sexp
            .as_atom()
            .filter(|t| !t.is_empty() && t.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|t| t.parse::<u32>().ok());
        if ok.is_none() {
            self.token_error(
                sexp.span,
                format!(
                    "expected {what} (a small decimal number), found {}",
                    sexp.describe()
                ),
            );
        }
        ok
    }

    fn parse_name(&mut self, sexp: &Sexp) -> Option<String> {
        match &sexp.kind {
            SexpKind::Atom(s) => Some(s.to_string()),
            SexpKind::Str(s) => Some(s.clone()),
            SexpKind::List(_) => {
                self.token_error(sexp.span, "expected a function name".to_string());
                None
            }
        }
    }

    // ---- program / defs ---------------------------------------------------

    fn lower_program(&mut self, forest: &[Sexp]) -> Program {
        // Pass 1: signatures (arity of every def, for call checking).
        // A def awaiting pass 2: its body form, name, and lowered params.
        type PendingDef<'f, 'a> = (&'f Sexp<'a>, String, Vec<(VarId, Span)>);
        let mut order: Vec<PendingDef> = Vec::new();
        for top in forest {
            let Some(items) = top.as_list() else {
                self.form_error(
                    top.span,
                    format!("expected a `(def ...)` form, found {}", top.describe()),
                );
                continue;
            };
            if items.first().and_then(Sexp::as_atom) != Some("def") {
                self.form_error(
                    top.span,
                    "expected a `(def name (params) body)` form".to_string(),
                );
                continue;
            }
            if items.len() != 4 {
                self.form_error(
                    top.span,
                    format!(
                        "`def` takes a name, a parameter list, and one body ({} items found)",
                        items.len() - 1
                    ),
                );
                continue;
            }
            let Some(name) = self.parse_name(&items[1]) else {
                continue;
            };
            let Some(param_items) = items[2].as_list() else {
                self.form_error(
                    items[2].span,
                    format!(
                        "expected a parameter list `(x0 x1 ...)`, found {}",
                        items[2].describe()
                    ),
                );
                continue;
            };
            let mut params = Vec::new();
            let mut params_ok = true;
            for p in param_items {
                // Ids are recorded during pass 2 (per-function max); here we
                // only need the shape.
                match p.as_atom().and_then(|t| {
                    t.strip_prefix('x')
                        .filter(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
                        .and_then(|d| d.parse::<u32>().ok())
                }) {
                    Some(id) => params.push((id, p.span)),
                    None => {
                        self.token_error(
                            p.span,
                            format!("expected a parameter like `x0`, found {}", p.describe()),
                        );
                        params_ok = false;
                    }
                }
            }
            if !params_ok {
                continue;
            }
            if self.sigs.insert(name.clone(), params.len()).is_some() {
                self.func = name.clone();
                self.wf(
                    codes::DUPLICATE_FUNCTION,
                    "duplicate function name".to_string(),
                    items[1].span,
                );
            }
            order.push((top, name, params));
        }
        // Pass 2: lower bodies.
        let mut program = Program::default();
        for (top, name, params) in order {
            let items = top.as_list().expect("validated in pass 1");
            self.func = name.clone();
            self.scope.begin_function();
            self.max_var = None;
            self.max_join = None;
            let mut param_ids = Vec::new();
            for (id, span) in &params {
                self.max_var = Some(self.max_var.map_or(*id, |m| m.max(*id)));
                // Parameters stay bound until the next function begins.
                let (_, rebound) = self.scope.bind(*id);
                if rebound {
                    self.wf(
                        codes::REBOUND,
                        format!("parameter x{id} bound twice"),
                        *span,
                    );
                }
                param_ids.push(*id);
            }
            let body = self.lower_expr(&items[3], &mut HashMap::new(), None);
            program.fns.push(FnDef {
                name,
                params: param_ids,
                body: body.unwrap_or(Expr::Ret(0)),
                next_var: self.max_var.map_or(0, |m| m + 1),
                next_join: self.max_join.map_or(0, |m| m + 1),
            });
        }
        program
    }

    // ---- expressions ------------------------------------------------------

    /// Lowers one expression. `joins` maps each jumpable join label to its
    /// arity. `jp` is `Some((label, outer_frame))` while inside a join-point
    /// body: `outer_frame` is the scope frame that declared the join, used
    /// to tell a *capture* (E0105) from a plain out-of-scope use (E0101).
    fn lower_expr(
        &mut self,
        sexp: &Sexp,
        joins: &mut HashMap<JoinId, usize>,
        jp: Option<(JoinId, u32)>,
    ) -> Option<Expr> {
        let Some(items) = sexp.as_list() else {
            self.form_error(
                sexp.span,
                format!("expected an expression form, found {}", sexp.describe()),
            );
            return None;
        };
        let Some(head) = items.first().and_then(Sexp::as_atom) else {
            self.form_error(
                sexp.span,
                "expected an expression form like `(ret x0)`".to_string(),
            );
            return None;
        };
        match head {
            "let" => {
                if items.len() != 4 {
                    self.form_error(sexp.span, "`let` takes a variable, a value, and a body");
                    return None;
                }
                let var = self.parse_var(&items[1]);
                let val = self.lower_value(&items[2], jp);
                let shadowed = var.map(|v| (v, self.bind(v, items[1].span)));
                let body = self.lower_expr(&items[3], joins, jp);
                if let Some((v, prev)) = shadowed {
                    self.scope.unbind(v, prev);
                }
                Some(Expr::Let {
                    var: var?,
                    val: val?,
                    body: Box::new(body?),
                })
            }
            "join" => {
                if items.len() != 5 {
                    self.form_error(
                        sexp.span,
                        "`join` takes a label, a parameter list, the join body, and the scope body",
                    );
                    return None;
                }
                let label = self.parse_join(&items[1]);
                let Some(param_items) = items[2].as_list() else {
                    self.form_error(
                        items[2].span,
                        format!(
                            "expected a parameter list `(x0 ...)`, found {}",
                            items[2].describe()
                        ),
                    );
                    return None;
                };
                // The join point's body sees only its parameters (a fresh
                // frame); the declaring frame is carried for capture
                // classification. Enclosing join points stay jumpable
                // (mirroring the AST checker).
                let outer = self.scope.enter_frame();
                let mut params = Vec::new();
                let mut shadowed = Vec::new();
                let mut params_ok = true;
                for p in param_items {
                    match self.parse_var(p) {
                        Some(v) => {
                            shadowed.push(self.bind(v, p.span));
                            params.push(v);
                        }
                        None => params_ok = false,
                    }
                }
                let jp_body = self.lower_expr(&items[3], joins, label.map(|l| (l, outer)));
                for (&v, prev) in params.iter().zip(shadowed).rev() {
                    self.scope.unbind(v, prev);
                }
                self.scope.exit_frame(outer);
                let declared = label.map(|l| (l, joins.insert(l, params.len())));
                let body = self.lower_expr(&items[4], joins, jp);
                match declared {
                    Some((l, Some(arity))) => _ = joins.insert(l, arity),
                    Some((l, None)) => _ = joins.remove(&l),
                    None => {}
                }
                if !params_ok {
                    return None;
                }
                Some(Expr::LetJoin {
                    label: label?,
                    params,
                    jp_body: Box::new(jp_body?),
                    body: Box::new(body?),
                })
            }
            "case" => {
                if items.len() < 3 {
                    self.form_error(sexp.span, "`case` takes a scrutinee and at least one arm");
                    return None;
                }
                let scrutinee = self.parse_var(&items[1]);
                if let Some(v) = scrutinee {
                    self.check_use(v, items[1].span, jp);
                }
                let mut alts: Vec<Alt> = Vec::new();
                let mut default: Option<Box<Expr>> = None;
                let mut seen_tags: HashSet<u32> = HashSet::new();
                let mut ok = true;
                for arm in &items[2..] {
                    let Some(arm_items) = arm.as_list() else {
                        self.form_error(
                            arm.span,
                            format!(
                                "expected an arm `(tag body)` or `(else body)`, found {}",
                                arm.describe()
                            ),
                        );
                        ok = false;
                        continue;
                    };
                    if arm_items.len() != 2 {
                        self.form_error(arm.span, "an arm takes a tag (or `else`) and one body");
                        ok = false;
                        continue;
                    }
                    if arm_items[0].as_atom() == Some("else") {
                        if default.is_some() {
                            self.form_error(arm_items[0].span, "duplicate `else` arm");
                            ok = false;
                        }
                        let body = self.lower_expr(&arm_items[1], joins, jp);
                        match body {
                            Some(b) if default.is_none() => default = Some(Box::new(b)),
                            _ => ok = false,
                        }
                        continue;
                    }
                    let tag = self.parse_u32(&arm_items[0], "a constructor tag");
                    if let Some(t) = tag {
                        if !seen_tags.insert(t) {
                            self.wf(
                                codes::DUPLICATE_TAG,
                                format!("duplicate case tag {t}"),
                                arm_items[0].span,
                            );
                        }
                    }
                    let body = self.lower_expr(&arm_items[1], joins, jp);
                    match (tag, body) {
                        (Some(tag), Some(body)) => alts.push(Alt { tag, body }),
                        _ => ok = false,
                    }
                }
                if alts.is_empty() && default.is_none() && ok {
                    self.wf(
                        codes::EMPTY_CASE,
                        "case with no arms".to_string(),
                        sexp.span,
                    );
                }
                if !ok {
                    return None;
                }
                Some(Expr::Case {
                    scrutinee: scrutinee?,
                    alts,
                    default,
                })
            }
            "jump" => {
                if items.len() < 2 {
                    self.form_error(sexp.span, "`jump` takes a join label and arguments");
                    return None;
                }
                let label = self.parse_join(&items[1]);
                let mut args = Vec::new();
                let mut ok = true;
                for a in &items[2..] {
                    match self.parse_var(a) {
                        Some(v) => {
                            self.check_use(v, a.span, jp);
                            args.push(v);
                        }
                        None => ok = false,
                    }
                }
                if let Some(l) = label {
                    match joins.get(&l) {
                        Some(&arity) if arity == args.len() => {}
                        Some(&arity) => self.wf(
                            codes::JUMP_ARITY,
                            format!("jump to j{l} with {} args (expects {arity})", args.len()),
                            sexp.span,
                        ),
                        None => self.wf(
                            codes::UNKNOWN_JOIN,
                            format!("jump to unknown join point j{l}"),
                            items[1].span,
                        ),
                    }
                }
                if !ok {
                    return None;
                }
                Some(Expr::Jump {
                    label: label?,
                    args,
                })
            }
            "ret" => {
                if items.len() != 2 {
                    self.form_error(sexp.span, "`ret` takes exactly one variable");
                    return None;
                }
                let v = self.parse_var(&items[1])?;
                self.check_use(v, items[1].span, jp);
                Some(Expr::Ret(v))
            }
            "inc" => {
                if items.len() != 4 {
                    self.form_error(sexp.span, "`inc` takes a variable, a count, and a body");
                    return None;
                }
                let var = self.parse_var(&items[1]);
                if let Some(v) = var {
                    self.check_use(v, items[1].span, jp);
                }
                let n = self.parse_u32(&items[2], "a retain count");
                let body = self.lower_expr(&items[3], joins, jp);
                Some(Expr::Inc {
                    var: var?,
                    n: n?,
                    body: Box::new(body?),
                })
            }
            "dec" => {
                if items.len() != 3 {
                    self.form_error(sexp.span, "`dec` takes a variable and a body");
                    return None;
                }
                let var = self.parse_var(&items[1]);
                if let Some(v) = var {
                    self.check_use(v, items[1].span, jp);
                }
                let body = self.lower_expr(&items[2], joins, jp);
                Some(Expr::Dec {
                    var: var?,
                    body: Box::new(body?),
                })
            }
            other => {
                self.form_error(
                    sexp.span,
                    format!(
                        "unknown expression form `{other}` (expected let, join, case, jump, ret, inc, or dec)"
                    ),
                );
                None
            }
        }
    }

    // ---- values -----------------------------------------------------------

    fn lower_value(&mut self, sexp: &Sexp, jp: Option<(JoinId, u32)>) -> Option<Value> {
        match &sexp.kind {
            SexpKind::Str(s) => Some(Value::LitStr(s.clone())),
            SexpKind::Atom(text) => {
                if text.starts_with('x')
                    && text.len() > 1
                    && text.as_bytes()[1..].iter().all(u8::is_ascii_digit)
                {
                    let v = self.parse_var(sexp)?;
                    self.check_use(v, sexp.span, jp);
                    return Some(Value::Var(v));
                }
                match text.parse::<i64>() {
                    Ok(n) => Some(Value::LitInt(n)),
                    Err(_) if text.bytes().all(|b| b.is_ascii_digit()) && !text.is_empty() => {
                        self.token_error(
                            sexp.span,
                            format!("integer literal `{text}` out of range; write `(big {text})`"),
                        );
                        None
                    }
                    Err(_) => {
                        self.token_error(
                            sexp.span,
                            format!("expected a value, found atom `{text}`"),
                        );
                        None
                    }
                }
            }
            SexpKind::List(items) => {
                let Some(head) = items.first().and_then(Sexp::as_atom) else {
                    self.form_error(
                        sexp.span,
                        "expected a value form like `(call f x0)`".to_string(),
                    );
                    return None;
                };
                match head {
                    "big" => {
                        if items.len() != 2 {
                            self.form_error(sexp.span, "`big` takes one digit sequence");
                            return None;
                        }
                        let digits = match &items[1].kind {
                            SexpKind::Atom(s) => s.to_string(),
                            SexpKind::Str(s) => s.clone(),
                            SexpKind::List(_) => {
                                self.token_error(items[1].span, "expected digits");
                                return None;
                            }
                        };
                        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
                            self.wf(
                                codes::BAD_BIGINT,
                                format!("malformed bigint literal {digits:?}"),
                                items[1].span,
                            );
                        }
                        Some(Value::LitBig(digits))
                    }
                    "ctor" => {
                        if items.len() < 2 {
                            self.form_error(sexp.span, "`ctor` takes a tag and field variables");
                            return None;
                        }
                        let tag = self.parse_u32(&items[1], "a constructor tag");
                        let args = self.lower_var_list(&items[2..], jp);
                        Some(Value::Ctor {
                            tag: tag?,
                            args: args?,
                        })
                    }
                    "proj" => {
                        if items.len() != 3 {
                            self.form_error(sexp.span, "`proj` takes a field index and a variable");
                            return None;
                        }
                        let idx = self.parse_u32(&items[1], "a field index");
                        let var = self.parse_var(&items[2]);
                        if let Some(v) = var {
                            self.check_use(v, items[2].span, jp);
                        }
                        Some(Value::Proj {
                            var: var?,
                            idx: idx?,
                        })
                    }
                    "call" | "pap" => {
                        if items.len() < 2 {
                            self.form_error(
                                sexp.span,
                                format!("`{head}` takes a function name and argument variables"),
                            );
                            return None;
                        }
                        let func = self.parse_name(&items[1]);
                        let args = self.lower_var_list(&items[2..], jp);
                        let (func, args) = (func?, args?);
                        if head == "call" {
                            self.check_call(&func, args.len(), items[1].span);
                            Some(Value::Call { func, args })
                        } else {
                            self.check_pap(&func, args.len(), items[1].span);
                            Some(Value::Pap { func, args })
                        }
                    }
                    "app" => {
                        if items.len() < 2 {
                            self.form_error(
                                sexp.span,
                                "`app` takes a closure variable and argument variables",
                            );
                            return None;
                        }
                        let closure = self.parse_var(&items[1]);
                        if let Some(v) = closure {
                            self.check_use(v, items[1].span, jp);
                        }
                        let args = self.lower_var_list(&items[2..], jp);
                        let args = args?;
                        if args.is_empty() {
                            self.wf(
                                codes::EMPTY_APP,
                                "closure application with no arguments".to_string(),
                                sexp.span,
                            );
                        }
                        Some(Value::App {
                            closure: closure?,
                            args,
                        })
                    }
                    other => {
                        self.form_error(
                            sexp.span,
                            format!(
                                "unknown value form `{other}` (expected big, ctor, proj, call, pap, or app)"
                            ),
                        );
                        None
                    }
                }
            }
        }
    }

    fn lower_var_list(&mut self, items: &[Sexp], jp: Option<(JoinId, u32)>) -> Option<Vec<VarId>> {
        let mut out = Vec::with_capacity(items.len());
        let mut ok = true;
        for item in items {
            match self.parse_var(item) {
                Some(v) => {
                    self.check_use(v, item.span, jp);
                    out.push(v);
                }
                None => ok = false,
            }
        }
        ok.then_some(out)
    }

    // ---- wellformedness ---------------------------------------------------

    /// Brings `v` into scope; the caller unbinds it after the binder's body.
    fn bind(&mut self, v: VarId, span: Span) -> Shadowed {
        let (prev, rebound) = self.scope.bind(v);
        if rebound {
            self.wf(codes::REBOUND, format!("x{v} bound more than once"), span);
        }
        prev
    }

    fn check_use(&mut self, v: VarId, span: Span, jp: Option<(JoinId, u32)>) {
        if self.scope.contains(v) {
            return;
        }
        match jp {
            Some((label, outer)) if self.scope.in_frame(v, outer) => self.wf(
                codes::JOIN_CAPTURE,
                format!("join point j{label} body references x{v}, which is not a parameter"),
                span,
            ),
            _ => self.wf(
                codes::OUT_OF_SCOPE,
                format!("use of x{v} out of scope"),
                span,
            ),
        }
    }

    fn check_call(&mut self, func: &str, nargs: usize, span: Span) {
        if func.starts_with("lean_") {
            match func.parse::<Builtin>() {
                Ok(b) => {
                    if b.arity() != nargs {
                        self.wf(
                            codes::BUILTIN_ARITY,
                            format!("builtin {func} expects {} args, got {nargs}", b.arity()),
                            span,
                        );
                    }
                }
                Err(_) => self.wf(
                    codes::UNKNOWN_BUILTIN,
                    format!("unknown builtin {func}"),
                    span,
                ),
            }
            return;
        }
        match self.sigs.get(func).copied() {
            Some(a) if a == nargs => {}
            Some(a) => self.wf(
                codes::CALL_ARITY,
                format!("call to @{func} with {nargs} args (arity {a})"),
                span,
            ),
            None => self.wf(
                codes::UNKNOWN_FUNCTION,
                format!("call to unknown function @{func}"),
                span,
            ),
        }
    }

    fn check_pap(&mut self, func: &str, nargs: usize, span: Span) {
        match self.sigs.get(func).copied() {
            Some(a) if nargs < a => {}
            Some(a) => self.wf(
                codes::BAD_PAP,
                format!("pap of @{func} with {nargs} args must under-apply (arity {a})"),
                span,
            ),
            None => self.wf(
                codes::BAD_PAP,
                format!("pap of unknown function @{func}"),
                span,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes_of(src: &str) -> Vec<&'static str> {
        check_source(src).into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn minimal_program_parses() {
        let p = parse_program("(def main () (let x0 42 (ret x0)))").unwrap();
        assert_eq!(p.fns.len(), 1);
        let f = &p.fns[0];
        assert_eq!(f.name, "main");
        assert_eq!(f.params, Vec::<VarId>::new());
        assert_eq!(f.next_var, 1);
        assert_eq!(f.next_join, 0);
        assert_eq!(
            f.body,
            Expr::Let {
                var: 0,
                val: Value::LitInt(42),
                body: Box::new(Expr::Ret(0)),
            }
        );
    }

    #[test]
    fn all_value_forms_parse() {
        let src = r#"
(def helper (x0 x1) (ret x0))
(def main (x0)
  (let x1 17
  (let x2 (big 123456789012345678901234567890)
  (let x3 "hi\n"
  (let x4 (ctor 2 x0 x1)
  (let x5 (proj 0 x4)
  (let x6 (call helper x1 x2)
  (let x7 (pap helper x1)
  (let x8 (app x7 x2)
  (let x9 x8
  (ret x9)))))))))))
"#;
        let p = parse_program(src).unwrap_or_else(|d| panic!("{d:?}"));
        assert_eq!(p.fns[1].next_var, 10);
        let text = p.fns[1].body.to_string();
        assert!(
            text.contains("big(123456789012345678901234567890)"),
            "{text}"
        );
        assert!(text.contains("ctor_2(x0, x1)"), "{text}");
        assert!(text.contains("pap @helper(x1)"), "{text}");
    }

    #[test]
    fn join_case_inc_dec_parse() {
        let src = r#"
(def f (x0)
  (join j0 (x1)
    (inc x1 2
    (dec x1
    (ret x1)))
  (case x0
    (0 (jump j0 x0))
    (else (jump j0 x0)))))
"#;
        let p = parse_program(src).unwrap_or_else(|d| panic!("{d:?}"));
        let f = &p.fns[0];
        assert_eq!(f.next_join, 1);
        assert_eq!(f.next_var, 2);
        assert!(f.body.has_rc_ops());
    }

    #[test]
    fn out_of_scope_has_span_and_code() {
        let diags = check_source("(def main () (ret x7))");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::OUT_OF_SCOPE);
        let span = diags[0].span.unwrap();
        assert_eq!(span, Span::new(18, 20));
        assert_eq!(diags[0].notes, vec!["in function @main".to_string()]);
    }

    #[test]
    fn join_capture_classified_separately() {
        // x0 is in the enclosing scope but not a join parameter: E0105.
        let src = "(def f (x0) (join j0 (x1) (ret x0) (jump j0 x0)))";
        assert_eq!(codes_of(src), vec![codes::JOIN_CAPTURE]);
        // x9 is nowhere: plain out-of-scope.
        let src = "(def f (x0) (join j0 (x1) (ret x9) (jump j0 x0)))";
        assert_eq!(codes_of(src), vec![codes::OUT_OF_SCOPE]);
    }

    #[test]
    fn call_checks_mirror_ast_checker() {
        assert_eq!(
            codes_of("(def main () (let x0 (call nosuch) (ret x0)))"),
            vec![codes::UNKNOWN_FUNCTION]
        );
        assert_eq!(
            codes_of("(def f (x0) (ret x0)) (def main () (let x0 (call f) (ret x0)))"),
            vec![codes::CALL_ARITY]
        );
        assert_eq!(
            codes_of("(def main () (let x0 (call lean_nosuch) (ret x0)))"),
            vec![codes::UNKNOWN_BUILTIN]
        );
        assert_eq!(
            codes_of("(def main () (let x0 (call lean_nat_add x0) (ret x0)))"),
            // x0 used before bound + arity: two diagnostics.
            vec![codes::OUT_OF_SCOPE, codes::BUILTIN_ARITY]
        );
        assert_eq!(
            codes_of("(def f (x0) (ret x0)) (def main () (let x0 (pap f x0) (ret x0)))"),
            vec![codes::OUT_OF_SCOPE, codes::BAD_PAP]
        );
    }

    #[test]
    fn rebinding_and_duplicate_tags_reported() {
        assert_eq!(
            codes_of("(def main () (let x0 1 (let x0 2 (ret x0))))"),
            vec![codes::REBOUND]
        );
        assert_eq!(
            codes_of("(def main (x0) (case x0 (0 (ret x0)) (0 (ret x0))))"),
            vec![codes::DUPLICATE_TAG]
        );
    }

    #[test]
    fn bindings_end_with_their_body() {
        // x1 belongs to the first arm only.
        assert_eq!(
            codes_of("(def f (x0) (case x0 (0 (let x1 1 (ret x1))) (1 (ret x1))))"),
            vec![codes::OUT_OF_SCOPE]
        );
        // Join parameters are not in scope in the join's scope body.
        assert_eq!(
            codes_of("(def f (x0) (join j0 (x1) (ret x1) (ret x1)))"),
            vec![codes::OUT_OF_SCOPE]
        );
        // A join parameter rebinding x0 ends with the join body; the
        // parameter x0 is in scope again after it.
        assert_eq!(
            codes_of("(def f (x0) (join j0 (x0) (ret x0) (ret x0)))"),
            vec![codes::REBOUND]
        );
    }

    #[test]
    fn duplicate_function_name_reported() {
        assert_eq!(
            codes_of("(def f () (let x0 1 (ret x0))) (def f () (let x0 2 (ret x0)))"),
            vec![codes::DUPLICATE_FUNCTION]
        );
    }

    #[test]
    fn jump_checks() {
        assert_eq!(
            codes_of("(def f (x0) (jump j3 x0))"),
            vec![codes::UNKNOWN_JOIN]
        );
        assert_eq!(
            codes_of("(def f (x0) (join j0 (x1) (ret x1) (jump j0)))"),
            vec![codes::JUMP_ARITY]
        );
    }

    #[test]
    fn structural_errors_block_the_program_but_not_other_diags() {
        let out = parse_source("(def main () (ret x0");
        assert!(out.program.is_none());
        assert!(out
            .diagnostics
            .iter()
            .any(|d| d.code == crate::diag::E_UNBALANCED));
        // The out-of-scope use inside the broken tree still surfaces.
        assert!(out
            .diagnostics
            .iter()
            .any(|d| d.code == codes::OUT_OF_SCOPE));
    }

    #[test]
    fn wellformedness_errors_keep_the_program() {
        let out = parse_source("(def main () (ret x7))");
        assert!(out.program.is_some(), "formatter needs the tree");
        assert_eq!(out.diagnostics.len(), 1);
        assert!(parse_program("(def main () (ret x7))").is_err());
    }

    #[test]
    fn huge_int_literal_guides_to_big() {
        let diags = check_source("(def main () (let x0 99999999999999999999 (ret x0)))");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, E_BAD_TOKEN);
        assert!(diags[0].message.contains("(big"), "{}", diags[0].message);
    }

    #[test]
    fn malformed_big_flagged_with_shared_code() {
        assert_eq!(
            codes_of("(def main () (let x0 (big \"12a\") (ret x0)))"),
            vec![codes::BAD_BIGINT]
        );
    }

    #[test]
    fn unknown_forms_rejected() {
        let out = parse_source("(def main () (frob x0))");
        assert!(out.program.is_none());
        assert_eq!(out.diagnostics[0].code, E_BAD_FORM);
        let out = parse_source("(module (def main () (ret x0)))");
        assert!(out.program.is_none());
    }

    #[test]
    fn quoted_function_names_roundtrip_oddities() {
        let p = parse_program(
            "(def \"weird name\" () (let x0 1 (ret x0))) (def main () (let x0 (call \"weird name\") (ret x0)))",
        )
        .unwrap_or_else(|d| panic!("{d:?}"));
        assert_eq!(p.fns[0].name, "weird name");
    }
}
