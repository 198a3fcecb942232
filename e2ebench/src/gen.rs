//! Seeded input generation: the job-order shuffle every workload uses and
//! the `compile_wide` program generator.

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Worker functions per generated program.
const WORKERS: usize = 240;
/// Workers call only lower-numbered workers of their own group, so every
/// call chain is shorter than a group and `main` stays cheap.
const GROUP: usize = 8;
/// Workers summed by one aggregator function.
const FANOUT: usize = 4;
/// Deepest parenthesis nesting of any `.lssa` program in `tests/corpus/`
/// (qsort and rbmap_checkpoint). Generated functions stay within it: the
/// workload measures width, not nesting depth.
pub const MAX_NESTING: usize = 26;

/// One `compile_wide` program in the surface language: [`WORKERS`] worker
/// functions built from `let` chains, a `case` over three constructors,
/// arithmetic and calls to one another, plus aggregators that call every
/// worker once, so `main` touches all the code but runs in well under a
/// millisecond.
pub fn wide_program(rng: &mut Rng) -> String {
    let mut src = String::from("inductive Shape := Dot(x) | Seg(x, y) | Tri(x, y, z)\n");
    for i in 0..WORKERS {
        worker(&mut src, rng, i);
    }
    for g in 0..WORKERS / FANOUT {
        let calls: Vec<String> = (0..FANOUT)
            .map(|k| {
                let shape = ["Dot(a)", "Seg(a, a)", "Tri(a, a, a)"][rng.below(3) as usize];
                format!("f{}(a, {shape})", g * FANOUT + k)
            })
            .collect();
        let rest = if g == 0 {
            String::new()
        } else {
            format!(" + agg{}(a)", g - 1)
        };
        src.push_str(&format!(
            "def agg{g}(a) := ({}) % 1000000{rest}\n",
            calls.join(" + ")
        ));
    }
    src.push_str(&format!(
        "def main() := agg{}({})\n",
        WORKERS / FANOUT - 1,
        rng.below(100)
    ));
    src
}

fn worker(src: &mut String, rng: &mut Rng, i: usize) {
    let k = |rng: &mut Rng| rng.below(97) + 2;
    let m = rng.below(9000) + 1000;
    let mut lets = String::new();
    for step in 0..rng.below(3) + 1 {
        let prev = if step == 0 {
            "a".to_string()
        } else {
            format!("u{}", step - 1)
        };
        let rhs = match rng.below(3) {
            0 => format!("{prev} + {}", k(rng)),
            1 => format!("({prev} * {}) % {m}", k(rng)),
            _ => format!("{prev} + a % {}", k(rng)),
        };
        lets.push_str(&format!("  let u{step} := {rhs};\n"));
    }
    let u = format!("u{}", lets.matches("let ").count() - 1);
    let group_base = i - i % GROUP;
    let seg_arm = if i > group_base {
        let callee = group_base + rng.below((i - group_base) as u64) as usize;
        let shape = if rng.below(2) == 0 {
            format!("Dot({u})")
        } else {
            format!("Tri(x, y, {u})")
        };
        format!("f{callee}((x + y * {}) % {m}, {shape})", k(rng))
    } else {
        format!("(x * {} + y) % {m}", k(rng))
    };
    src.push_str(&format!(
        "def f{i}(a, s) :=\n{lets}  case s of\n  | Dot(x) => ({u} * {} + x) % {m}\n  | Seg(x, y) => {seg_arm}\n  | Tri(x, y, z) => (x + y + z + {u}) % {m}\n  end\n",
        k(rng)
    ));
}

/// Deepest parenthesis nesting in `text`.
pub fn nesting(text: &str) -> usize {
    let (mut depth, mut max) = (0usize, 0usize);
    for c in text.bytes() {
        match c {
            b'(' => {
                depth += 1;
                max = max.max(depth);
            }
            b')' => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    max
}
