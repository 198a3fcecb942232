//! The λpure → λrc frontend is linear in the length of a `let` chain.
//!
//! Times `check_source` plus the steps `frontend_ast` runs on the parsed
//! program (check, simplify, RC insertion) on one straight-line function of
//! N nested `let`s, at two sizes, and asserts the within-run ratio stays
//! near linear. A scope copied at every binder, or a free-variable set
//! rebuilt at every `let`, makes the ratio grow with N (~64 between these
//! sizes); linear work gives ~8. Wall-clock ratios are noisy on a shared
//! machine, so each size takes the minimum of several runs and the bound
//! leaves room above 8. Meaningful in the release profile
//! (`cargo test --release -p lssa-syntax`); also run in debug.

use lssa_lambda::{check_program, insert_rc, simplify_program, SimplifyOptions};
use std::time::{Duration, Instant};

/// `main(x0)`: alternating literal and `lean_nat_add` lets, each add using
/// the parameter and the previous result, so nothing folds away and every
/// literal is a droppable `let` whose use is the next binder.
fn let_chain(n: usize) -> String {
    let mut src = String::from("(def main (x0)\n");
    for i in 1..=n {
        if i % 2 == 1 {
            src.push_str(&format!("(let x{i} {i}\n"));
        } else {
            src.push_str(&format!("(let x{i} (call lean_nat_add x{} x0)\n", i - 1));
        }
    }
    src.push_str(&format!("(ret x{n})"));
    src.push_str(&")".repeat(n + 1));
    src
}

fn frontend(src: &str) {
    assert!(lssa_syntax::check_source(src).is_empty());
    let program = lssa_syntax::parse_program(src).expect("chain parses");
    check_program(&program).expect("chain is wellformed");
    let simplified = simplify_program(&program, SimplifyOptions::all());
    std::hint::black_box(insert_rc(&simplified));
}

fn min_time(src: &str, runs: usize) -> Duration {
    (0..runs)
        .map(|_| {
            let t = Instant::now();
            frontend(src);
            t.elapsed()
        })
        .min()
        .expect("at least one run")
}

#[test]
fn frontend_time_grows_linearly_with_let_chain_length() {
    // The lowerer and the lssa-lambda passes still recurse once per `let`.
    let worker = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(|| {
            let (small, large) = (let_chain(500), let_chain(4000));
            frontend(&large); // warm up the allocator
            let t_small = min_time(&small, 5);
            let t_large = min_time(&large, 5);
            (t_small, t_large)
        })
        .expect("spawn test thread");
    let (t_small, t_large) = worker.join().expect("frontend thread");
    let ratio = t_large.as_secs_f64() / t_small.as_secs_f64();
    println!("N=500: {t_small:?}, N=4000: {t_large:?}, ratio {ratio:.1} (linear ≈ 8)");
    assert!(
        ratio < 20.0,
        "8x the lets cost {ratio:.1}x the time ({t_small:?} → {t_large:?})"
    );
}
