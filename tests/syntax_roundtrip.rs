//! Property-based fuzzing of the `.lssa` text frontend, driven by the same
//! program generator the conformance suite uses:
//!
//! - `parse(print(p)) == p` exactly (id bounds included) for generated
//!   λpure programs *and* their λrc forms,
//! - formatting is idempotent, also on simplified programs whose variable
//!   ids have gaps,
//! - whitespace mangling never changes what the formatter produces,
//! - (with `--features slow-tests`) reparsed text executes identically to
//!   the original program through the full compile-to-VM pipeline, both
//!   decode modes.

use lambda_ssa::driver::conformance::generated;
use lambda_ssa::lambda::ast::Program;
use lambda_ssa::lambda::{insert_rc, parse_program, simplify_program, SimplifyOptions};
use lambda_ssa::syntax;
use proptest::prelude::*;

/// One generated surface program, lowered to the AST.
fn surface(seed: u64) -> Program {
    let case = generated(1, seed).remove(0);
    parse_program(&case.src).expect("generated programs parse")
}

/// Strict parse that surfaces diagnostics in the proptest failure message.
fn reparse(text: &str) -> Result<Program, TestCaseError> {
    syntax::parse_program(text)
        .map_err(|d| TestCaseError::fail(format!("reparse failed: {d:?}\n---\n{text}")))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(feature = "slow-tests") { 96 } else { 32 },
        .. ProptestConfig::default()
    })]

    /// The printer and parser are exact inverses on λpure programs.
    #[test]
    fn print_parse_roundtrips_lambda_pure(seed in any::<u32>()) {
        let p = surface(seed as u64);
        let text = syntax::print_program(&p);
        let back = reparse(&text)?;
        prop_assert_eq!(&back, &p, "round-trip changed the program:\n{}", text);
        // Generated programs are wellformed, so the checker must be silent.
        prop_assert!(syntax::check_source(&text).is_empty());
    }

    /// Same, after RC insertion — `inc`/`dec` survive the text form.
    #[test]
    fn print_parse_roundtrips_lambda_rc(seed in any::<u32>()) {
        let rc = insert_rc(&surface(seed as u64 ^ 0x0ff0_0ff0));
        let text = syntax::print_program(&rc);
        let back = reparse(&text)?;
        prop_assert_eq!(&back, &rc, "λrc round-trip changed the program:\n{}", text);
    }

    /// `fmt(fmt(s)) == fmt(s)`, including on simplified programs whose
    /// variable ids have gaps (those never round-trip the id *bounds*, but
    /// the printed text must still be a fixpoint).
    #[test]
    fn formatting_is_idempotent(seed in any::<u32>()) {
        let p = surface(seed as u64 ^ 0x5eed_cafe);
        let text = syntax::print_program(&p);
        prop_assert_eq!(syntax::format_source(&text).expect("canonical text formats"), text);
        let s = simplify_program(&p, SimplifyOptions::all());
        let stext = syntax::print_program(&s);
        prop_assert_eq!(syntax::format_source(&stext).expect("simplified text formats"), stext);
    }

    /// Collapsing all layout whitespace leaves the formatter's output
    /// unchanged. (Guarded on string literals, whose spaces are content.)
    #[test]
    fn formatting_normalises_mangled_whitespace(seed in any::<u32>()) {
        let text = syntax::print_program(&surface(seed as u64 ^ 0x77ab_cdef));
        if !text.contains('"') {
            let mangled = text.replace('\n', " \t  ");
            prop_assert_eq!(
                syntax::format_source(&mangled).expect("mangled text still parses"),
                text
            );
        }
    }
}

#[cfg(feature = "slow-tests")]
mod slow {
    use super::*;
    use lambda_ssa::driver::pipelines::{compile_ast_with_report, CompilerConfig, PipelineError};
    use lambda_ssa::vm::{run_decoded_with, DecodeOptions, ExecOptions, RunOutcome};

    const MAX_STEPS: u64 = 200_000_000;

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 24, // 4 configs × 2 decode modes × 2 programs per case
            .. ProptestConfig::default()
        })]

        /// Full-pipeline equivalence: a program that went text → parse must
        /// compile and run exactly like the programmatic original under
        /// every configuration and decode mode.
        #[test]
        fn reparsed_text_executes_identically(seed in any::<u32>()) {
            let p = surface(seed as u64 ^ 0x5107_7e57);
            let text = syntax::print_program(&p);
            let reparsed = reparse(&text)?;
            for config in [
                CompilerConfig::leanc(),
                CompilerConfig::mlir(),
                CompilerConfig::rgn_only(),
                CompilerConfig::none(),
            ] {
                for decode in [DecodeOptions::fused(), DecodeOptions::no_fuse()] {
                    let run = |p: &Program| -> Result<RunOutcome, PipelineError> {
                        let (compiled, _) = compile_ast_with_report(p, config)?;
                        let decoded = compiled.decoded(decode);
                        Ok(run_decoded_with(&decoded, "main", MAX_STEPS, ExecOptions::default())?)
                    };
                    let a = run(&p)
                        .map_err(|e| TestCaseError::fail(format!("original: {e}")))?;
                    let b = run(&reparsed)
                        .map_err(|e| TestCaseError::fail(format!("reparsed: {e}")))?;
                    prop_assert_eq!(&a.rendered, &b.rendered, "[{}]\n{}", config.label(), text);
                    prop_assert_eq!(a.stats.heap.live, 0);
                    prop_assert_eq!(b.stats.heap.live, 0);
                }
            }
        }
    }
}
