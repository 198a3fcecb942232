//! Variable scopes for one walk over a function body, with undo instead of
//! copies.
//!
//! The two wellformedness checkers (the AST one in
//! [`crate::wellformed`] and the spanned one in `lssa-syntax`'s lowerer)
//! walk each function once, binding at every `let` and join parameter and
//! releasing the binding when the binder's body is done. A [`Scope`] makes
//! each of those steps O(1): one slot per variable id records which
//! *frame* bound it, and a use is in scope when that frame is the current
//! one. A join-point body, which sees only its own parameters, is a fresh
//! frame; the frame that declared the join stays queryable, which is how a
//! capture (E0105) is told from a plain out-of-scope use (E0101).
//!
//! Slots also remember which function last bound them, so one `Scope`
//! serves a whole program and re-binding within a function (E0102) is found
//! without a separate set. Ids below 2^16 index a vector; larger (sparse)
//! ids fall back to a hash map, so a stray `x4000000000` costs one map
//! entry rather than gigabytes.

use crate::ast::VarId;
use std::collections::HashMap;

/// Variable ids below this bound use the dense slot vector.
const DENSE_IDS: VarId = 1 << 16;

/// Who bound a variable: frame 0 means unbound.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    frame: u32,
    func: u32,
}

/// The binding a [`Scope::bind`] replaced; hand it back to
/// [`Scope::unbind`] when the binder's body is done.
#[derive(Debug, Clone, Copy)]
#[must_use = "pass the previous binding to `Scope::unbind`"]
pub struct Shadowed(u32);

/// The set of variables in scope at the current point of a walk; see the
/// module documentation.
#[derive(Debug, Default)]
pub struct Scope {
    dense: Vec<Slot>,
    sparse: HashMap<VarId, Slot>,
    /// The frame uses are checked against (0 before the first function).
    frame: u32,
    /// Frames handed out so far; frame numbers are never reused.
    frames: u32,
    /// Functions begun so far; the current one's number.
    func: u32,
}

impl Scope {
    /// Starts a function: nothing is in scope and nothing counts as bound
    /// before.
    pub fn begin_function(&mut self) {
        self.func = self.func.checked_add(1).expect("fewer than 2^32 functions");
        self.frame = self.fresh_frame();
    }

    /// Enters a join-point body, where only what is bound from now on is in
    /// scope. Returns the enclosing frame, for [`Scope::in_frame`] and
    /// [`Scope::exit_frame`].
    pub fn enter_frame(&mut self) -> u32 {
        let outer = self.frame;
        self.frame = self.fresh_frame();
        outer
    }

    /// Returns to the frame [`Scope::enter_frame`] left.
    pub fn exit_frame(&mut self, outer: u32) {
        self.frame = outer;
    }

    /// Brings `v` into scope. Also reports whether `v` was already bound
    /// earlier in the current function (in any frame).
    pub fn bind(&mut self, v: VarId) -> (Shadowed, bool) {
        let (frame, func) = (self.frame, self.func);
        let slot = self.slot_mut(v);
        let rebound = slot.func == func;
        let prev = Shadowed(slot.frame);
        *slot = Slot { frame, func };
        (prev, rebound)
    }

    /// Ends `v`'s binding, restoring the one it shadowed.
    pub fn unbind(&mut self, v: VarId, prev: Shadowed) {
        self.slot_mut(v).frame = prev.0;
    }

    /// Whether `v` is in scope.
    pub fn contains(&self, v: VarId) -> bool {
        self.in_frame(v, self.frame)
    }

    /// Whether `v` is bound in `frame` (the current or an enclosing one).
    pub fn in_frame(&self, v: VarId, frame: u32) -> bool {
        let slot = if v < DENSE_IDS {
            self.dense.get(v as usize).copied()
        } else {
            self.sparse.get(&v).copied()
        };
        // Frame 0 marks an unbound slot, not a frame (no function begun).
        frame != 0 && slot.is_some_and(|s| s.frame == frame)
    }

    fn fresh_frame(&mut self) -> u32 {
        self.frames = self.frames.checked_add(1).expect("fewer than 2^32 frames");
        self.frames
    }

    fn slot_mut(&mut self, v: VarId) -> &mut Slot {
        if v < DENSE_IDS {
            let i = v as usize;
            if i >= self.dense.len() {
                self.dense.resize(i + 1, Slot::default());
            }
            &mut self.dense[i]
        } else {
            self.sparse.entry(v).or_default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_unbind_restores_shadowed_binding() {
        let mut s = Scope::default();
        s.begin_function();
        let (outer, rebound) = s.bind(3);
        assert!(!rebound && s.contains(3));
        let (inner, rebound) = s.bind(3);
        assert!(rebound, "second binder of x3 in one function");
        s.unbind(3, inner);
        assert!(s.contains(3), "the outer binding is back");
        s.unbind(3, outer);
        assert!(!s.contains(3));
    }

    #[test]
    fn frames_hide_enclosing_bindings_but_stay_queryable() {
        let mut s = Scope::default();
        s.begin_function();
        let (_, _) = s.bind(0);
        let outer = s.enter_frame();
        assert!(!s.contains(0));
        assert!(s.in_frame(0, outer));
        let (p, _) = s.bind(1);
        assert!(s.contains(1));
        s.unbind(1, p);
        s.exit_frame(outer);
        assert!(s.contains(0) && !s.contains(1));
    }

    #[test]
    fn functions_start_empty_and_sparse_ids_work() {
        let mut s = Scope::default();
        let (p, _) = s.bind(7);
        s.unbind(7, p);
        assert!(!s.contains(7), "nothing is in scope outside a function");
        s.begin_function();
        let (_, _) = s.bind(7);
        let (_, _) = s.bind(4_000_000_000);
        assert!(s.contains(4_000_000_000));
        s.begin_function();
        assert!(!s.contains(7) && !s.contains(4_000_000_000));
        let (_, rebound) = s.bind(7);
        assert!(!rebound, "bound in the previous function only");
    }
}
