//! The reference-counted heap.
//!
//! Stand-in for `libleanrt`'s allocator: a slot arena with an intrusive free
//! list, explicit `inc`/`dec` reference-count operations (the targets of
//! `lp.inc`/`lp.dec`), and allocation statistics used by the evaluation
//! harness to report memory behaviour.
//!
//! Constructor field storage is recycled by arity, the way LEAN's runtime
//! serves small objects from per-size free lists: a dead constructor's
//! `Box<[ObjRef]>` goes onto the recycle list for its field count, and the
//! next constructor with that many fields is filled into it instead of
//! asking the system allocator for a fresh box ([`HeapStats::ctor_reuses`]
//! counts these). Zero-field constructors own no storage and never touch
//! the lists. Retained memory needs no knob: a box is created only when its
//! list is empty, so for each field count the boxes held — live plus
//! listed — equal the high-water mark of live constructors with that field
//! count. [`Heap::free_all`] empties the lists.

use crate::bignum::{Int, Nat};
use crate::object::{ObjData, ObjRef, Object, MAX_SMALL_INT, MAX_SMALL_NAT, MIN_SMALL_INT};

/// Allocation and reference-count statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Number of objects allocated over the heap's lifetime.
    pub allocs: u64,
    /// Constructor cells allocated.
    pub ctor_allocs: u64,
    /// Constructor cells whose field storage came from a recycle list
    /// rather than a fresh allocation (a subset of `ctor_allocs`).
    pub ctor_reuses: u64,
    /// Closures allocated.
    pub closure_allocs: u64,
    /// Arrays allocated.
    pub array_allocs: u64,
    /// Strings allocated.
    pub str_allocs: u64,
    /// Boxed big integers allocated.
    pub bigint_allocs: u64,
    /// Number of objects freed.
    pub frees: u64,
    /// Number of `inc` operations executed.
    pub incs: u64,
    /// Number of `dec` operations executed.
    pub decs: u64,
    /// Current number of live objects.
    pub live: u64,
    /// High-water mark of live objects.
    pub peak_live: u64,
    /// Approximate bytes held by live objects (see [`obj_bytes`] for the
    /// size model — a header charge plus payload words).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub peak_bytes: u64,
}

impl HeapStats {
    /// Folds the statistics of an independent heap into this record:
    /// counts sum, the high-water mark takes the maximum.
    pub fn absorb(&mut self, other: &HeapStats) {
        self.allocs += other.allocs;
        self.ctor_allocs += other.ctor_allocs;
        self.ctor_reuses += other.ctor_reuses;
        self.closure_allocs += other.closure_allocs;
        self.array_allocs += other.array_allocs;
        self.str_allocs += other.str_allocs;
        self.bigint_allocs += other.bigint_allocs;
        self.frees += other.frees;
        self.incs += other.incs;
        self.decs += other.decs;
        self.live += other.live;
        self.peak_live = self.peak_live.max(other.peak_live);
        self.live_bytes += other.live_bytes;
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
    }
}

/// Approximate size in bytes of one heap object under a fixed cost model:
/// a 16-byte header (rc + discriminant) plus 8 bytes per payload word
/// (ctor fields, closure captures, array elements), the byte length for
/// strings, and a flat 32 bytes for boxed big integers. The model is
/// deliberately platform-independent so byte budgets trip at the same
/// allocation on every host.
pub fn obj_bytes(data: &ObjData) -> u64 {
    const HEADER: u64 = 16;
    HEADER
        + match data {
            ObjData::Ctor { fields, .. } => 8 * fields.len() as u64,
            ObjData::Closure { args, .. } => 8 + 8 * args.len() as u64,
            ObjData::Array(elems) => 8 * elems.len() as u64,
            ObjData::Str(s) => s.len() as u64,
            ObjData::BigInt(_) => 32,
            ObjData::Free(_) => 0,
        }
}

/// A reference-counted slot heap.
///
/// # Examples
///
/// ```
/// use lssa_rt::heap::Heap;
/// let mut heap = Heap::new();
/// let nil = heap.alloc_ctor(0, vec![]);
/// let one = lssa_rt::object::ObjRef::scalar(1);
/// let cons = heap.alloc_ctor(1, vec![one, nil]);
/// assert_eq!(heap.ctor_tag(cons), 1);
/// heap.dec(cons); // frees cons and nil
/// assert_eq!(heap.stats().live, 0);
/// ```
#[derive(Debug, Default)]
pub struct Heap {
    slots: Vec<Object>,
    free_head: Option<u32>,
    stats: HeapStats,
    /// Reused worklist for transitive frees ([`Heap::dec`]): a dec that
    /// frees nothing — the overwhelmingly common case — and even most
    /// frees cost no allocation.
    dec_scratch: Vec<ObjRef>,
    /// Live-byte cap (`None` = unlimited). Exceeding it sets `tripped`;
    /// allocation itself never fails, so the VM observes the trip at its
    /// next budget checkpoint and aborts with a structured error.
    byte_limit: Option<u64>,
    /// Fault injection: force a budget trip at the Nth allocation.
    trip_alloc: Option<u64>,
    /// Sticky budget-exceeded flag, polled via [`Heap::over_budget`].
    tripped: bool,
    /// Recycle lists of constructor field storage: `ctor_pool[n]` holds
    /// boxes of exactly `n` fields left by dead constructors. Each box is
    /// owned by exactly one live constructor or by one list.
    ctor_pool: Vec<Vec<Box<[ObjRef]>>>,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Resets the statistics counters (the heap contents are untouched).
    pub fn reset_stats(&mut self) {
        let live = self.stats.live;
        let live_bytes = self.stats.live_bytes;
        self.stats = HeapStats {
            live,
            peak_live: live,
            live_bytes,
            peak_bytes: live_bytes,
            ..HeapStats::default()
        };
    }

    // ---- resource governance --------------------------------------------

    /// Caps live heap bytes (`None` lifts the cap). The cap is advisory:
    /// crossing it sets a sticky flag ([`Heap::over_budget`]) rather than
    /// failing the allocation, so in-flight operations complete and the VM
    /// aborts cleanly at its next checkpoint.
    pub fn set_byte_limit(&mut self, limit: Option<u64>) {
        self.byte_limit = limit;
    }

    /// Fault injection: trip the budget flag at the `at`-th allocation
    /// (counted over the heap's lifetime), as if a byte cap had been hit.
    pub fn set_trip_alloc(&mut self, at: Option<u64>) {
        self.trip_alloc = at;
    }

    /// Whether any byte cap or allocation trip is armed (used by the VM to
    /// decide if budget checkpoints need to poll the heap at all).
    pub fn has_byte_budget(&self) -> bool {
        self.byte_limit.is_some() || self.trip_alloc.is_some()
    }

    /// Whether the byte cap (or an injected allocation trip) has been hit.
    /// Sticky until [`Heap::clear_budget_trip`] or [`Heap::free_all`].
    pub fn over_budget(&self) -> bool {
        self.tripped
    }

    /// Clears the sticky budget-exceeded flag.
    pub fn clear_budget_trip(&mut self) {
        self.tripped = false;
    }

    /// Counts live objects by scanning the arena — the ground truth the
    /// abort-path leak checks compare against `stats().live`.
    pub fn live_objects(&self) -> u64 {
        self.slots
            .iter()
            .filter(|o| !matches!(o.data, ObjData::Free(_)))
            .count() as u64
    }

    /// Frees every live object unconditionally, rebuilds the free list and
    /// empties the constructor recycle lists — the drop-all sweep an
    /// aborted run uses to reclaim objects still owned by abandoned frames.
    /// Child references need no recursive dec: the sweep visits every slot
    /// exactly once. Returns the number of objects freed; afterwards
    /// `stats().live == 0` and, when the refcount machinery was balanced,
    /// `stats().allocs == stats().frees`.
    pub fn free_all(&mut self) -> u64 {
        let mut freed = 0u64;
        let mut next = u32::MAX;
        for slot in (0..self.slots.len()).rev() {
            let obj = &mut self.slots[slot];
            if !matches!(obj.data, ObjData::Free(_)) {
                freed += 1;
                obj.rc = 0;
            }
            obj.data = ObjData::Free(next);
            next = slot as u32;
        }
        self.free_head = (next != u32::MAX).then_some(next);
        self.ctor_pool.clear();
        // Set the ledgers directly rather than decrementing per object: if
        // bookkeeping had drifted, decrements could underflow and mask the
        // very imbalance the caller is about to assert on via allocs/frees.
        self.stats.frees += freed;
        self.stats.live = 0;
        self.stats.live_bytes = 0;
        self.tripped = false;
        freed
    }

    /// Objects allocated so far (cheap accessor: the VM samples this around
    /// allocating instructions to attribute allocations per opcode class).
    pub fn alloc_count(&self) -> u64 {
        self.stats.allocs
    }

    fn alloc(&mut self, data: ObjData) -> ObjRef {
        self.stats.allocs += 1;
        match data {
            ObjData::Ctor { .. } => self.stats.ctor_allocs += 1,
            ObjData::Closure { .. } => self.stats.closure_allocs += 1,
            ObjData::Array(_) => self.stats.array_allocs += 1,
            ObjData::Str(_) => self.stats.str_allocs += 1,
            ObjData::BigInt(_) => self.stats.bigint_allocs += 1,
            ObjData::Free(_) => unreachable!("allocating a free slot marker"),
        }
        self.stats.live += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.stats.live);
        self.stats.live_bytes += obj_bytes(&data);
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
        if self.byte_limit.is_some_and(|l| self.stats.live_bytes > l)
            || self.trip_alloc.is_some_and(|k| self.stats.allocs >= k)
        {
            self.tripped = true;
        }
        let obj = Object { rc: 1, data };
        match self.free_head.take() {
            Some(slot) => {
                let next = match self.slots[slot as usize].data {
                    ObjData::Free(next) => next,
                    _ => unreachable!("free list points at live object"),
                };
                self.free_head = if next == u32::MAX { None } else { Some(next) };
                self.slots[slot as usize] = obj;
                ObjRef::heap(slot)
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("heap exhausted");
                self.slots.push(obj);
                ObjRef::heap(slot)
            }
        }
    }

    fn obj(&self, r: ObjRef) -> &Object {
        let slot = r.as_heap().expect("expected heap reference, got scalar");
        let o = &self.slots[slot as usize];
        debug_assert!(
            !matches!(o.data, ObjData::Free(_)),
            "use after free of slot {slot}"
        );
        o
    }

    fn obj_mut(&mut self, r: ObjRef) -> &mut Object {
        let slot = r.as_heap().expect("expected heap reference, got scalar");
        let o = &mut self.slots[slot as usize];
        debug_assert!(
            !matches!(o.data, ObjData::Free(_)),
            "use after free of slot {slot}"
        );
        o
    }

    /// Reads the payload of a heap object.
    ///
    /// # Panics
    ///
    /// Panics if `r` is a scalar.
    pub fn data(&self, r: ObjRef) -> &ObjData {
        &self.obj(r).data
    }

    /// Current reference count of a heap object.
    pub fn rc(&self, r: ObjRef) -> u32 {
        self.obj(r).rc
    }

    /// Whether the object is uniquely referenced (enables in-place update).
    pub fn is_exclusive(&self, r: ObjRef) -> bool {
        r.is_heap() && self.obj(r).rc == 1
    }

    // ---- allocation -----------------------------------------------------

    /// Allocates a constructor cell. Ownership of `fields` transfers to the
    /// new object (no `inc` is performed). The fields are written into a
    /// recycled box of their exact count when one is listed, and into a
    /// fresh exact-size box otherwise, so callers stream them straight in
    /// (the VM maps its registers) with no staging `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields fewer items than its `len()` promised.
    pub fn alloc_ctor<I>(&mut self, tag: u32, fields: I) -> ObjRef
    where
        I: IntoIterator<Item = ObjRef>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut fields = fields.into_iter();
        let n = fields.len();
        let fields = match self.ctor_pool.get_mut(n).and_then(Vec::pop) {
            Some(mut boxed) => {
                self.stats.ctor_reuses += 1;
                let mut filled = 0;
                for (slot, v) in boxed.iter_mut().zip(&mut fields) {
                    *slot = v;
                    filled += 1;
                }
                assert_eq!(filled, n, "constructor field iterator ended early");
                debug_assert!(
                    fields.next().is_none(),
                    "constructor field iterator overran"
                );
                boxed
            }
            None => fields.collect(),
        };
        self.alloc(ObjData::Ctor { tag, fields })
    }

    /// Allocates a closure capturing `args`.
    pub fn alloc_closure(
        &mut self,
        func: crate::object::FuncId,
        arity: u16,
        args: Vec<ObjRef>,
    ) -> ObjRef {
        debug_assert!(args.len() < arity as usize || arity == 0);
        self.alloc(ObjData::Closure { func, arity, args })
    }

    /// Allocates an array.
    pub fn alloc_array(&mut self, elems: Vec<ObjRef>) -> ObjRef {
        self.alloc(ObjData::Array(elems))
    }

    /// Allocates a string.
    pub fn alloc_str(&mut self, s: String) -> ObjRef {
        self.alloc(ObjData::Str(s))
    }

    /// Boxes an arbitrary-precision integer, or returns a scalar if it fits.
    pub fn mk_int(&mut self, v: Int) -> ObjRef {
        match v.to_i64() {
            Some(s) if (MIN_SMALL_INT..=MAX_SMALL_INT).contains(&s) => ObjRef::scalar(s),
            _ => self.alloc(ObjData::BigInt(v)),
        }
    }

    /// Boxes a natural number, or returns a scalar if it fits.
    pub fn mk_nat(&mut self, v: Nat) -> ObjRef {
        match v.to_u64() {
            Some(s) if s <= MAX_SMALL_NAT => ObjRef::scalar(s as i64),
            _ => self.alloc(ObjData::BigInt(Int::from_nat(v))),
        }
    }

    /// Decodes a value known to be an integer (scalar or boxed bigint).
    ///
    /// # Panics
    ///
    /// Panics if `r` refers to a non-integer heap object.
    pub fn get_int(&self, r: ObjRef) -> Int {
        match r.as_scalar() {
            Some(v) => Int::from_i64(v),
            None => match self.data(r) {
                ObjData::BigInt(i) => i.clone(),
                other => panic!("expected integer object, found {other:?}"),
            },
        }
    }

    /// Decodes a value known to be a natural number.
    ///
    /// # Panics
    ///
    /// Panics if the value is negative or not an integer object.
    pub fn get_nat(&self, r: ObjRef) -> Nat {
        let i = self.get_int(r);
        assert!(!i.is_neg(), "expected natural, found negative {i}");
        i.magnitude().clone()
    }

    // ---- constructor access ---------------------------------------------

    /// The tag of a constructor value. Scalars are treated as zero-field
    /// constructors whose tag is the scalar value (LEAN's representation of
    /// enum-like inductives such as `Bool`).
    pub fn ctor_tag(&self, r: ObjRef) -> u32 {
        match r.as_scalar() {
            Some(v) => u32::try_from(v).expect("scalar ctor tag out of range"),
            None => match self.data(r) {
                ObjData::Ctor { tag, .. } => *tag,
                other => panic!("getlabel on non-constructor {other:?}"),
            },
        }
    }

    /// Projects field `idx` out of a constructor (no refcount change).
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a constructor or `idx` is out of bounds.
    pub fn ctor_field(&self, r: ObjRef, idx: usize) -> ObjRef {
        match self.data(r) {
            ObjData::Ctor { fields, .. } => fields[idx],
            other => panic!("project on non-constructor {other:?}"),
        }
    }

    /// Number of fields of a constructor (0 for scalars).
    pub fn ctor_num_fields(&self, r: ObjRef) -> usize {
        if r.is_scalar() {
            return 0;
        }
        match self.data(r) {
            ObjData::Ctor { fields, .. } => fields.len(),
            other => panic!("num_fields on non-constructor {other:?}"),
        }
    }

    /// Overwrites field `idx` of an exclusively-owned constructor.
    ///
    /// # Panics
    ///
    /// Panics if the object is shared (`rc > 1`).
    pub fn ctor_set_field(&mut self, r: ObjRef, idx: usize, v: ObjRef) {
        assert!(self.is_exclusive(r), "ctor_set_field on shared object");
        match &mut self.obj_mut(r).data {
            ObjData::Ctor { fields, .. } => fields[idx] = v,
            other => panic!("set_field on non-constructor {other:?}"),
        }
    }

    // ---- reference counting ----------------------------------------------

    /// Increments the reference count (no-op on scalars), like `lean_inc`.
    pub fn inc(&mut self, r: ObjRef) {
        self.stats.incs += 1;
        if r.is_heap() {
            self.obj_mut(r).rc += 1;
        }
    }

    /// Increments the reference count by `n`.
    pub fn inc_n(&mut self, r: ObjRef, n: u32) {
        self.stats.incs += n as u64;
        if r.is_heap() && n > 0 {
            self.obj_mut(r).rc += n;
        }
    }

    /// Decrements the reference count, freeing (recursively, without using
    /// the machine stack) when it reaches zero. Like `lean_dec`.
    pub fn dec(&mut self, r: ObjRef) {
        self.stats.decs += 1;
        self.dec_no_stat(r);
    }

    fn dec_no_stat(&mut self, r: ObjRef) {
        let Some(slot) = r.as_heap() else {
            return;
        };
        let obj = &mut self.slots[slot as usize];
        debug_assert!(
            !matches!(obj.data, ObjData::Free(_)),
            "dec on freed slot {slot}"
        );
        debug_assert!(obj.rc >= 1, "dec on rc 0");
        obj.rc -= 1;
        if obj.rc == 0 {
            self.free_transitively(slot);
        }
    }

    /// Frees `slot` and — iteratively, without using the machine stack —
    /// every transitively-owned child whose refcount reaches zero. The
    /// worklist buffer persists on the heap (`dec_scratch`), so the free
    /// path itself does not allocate.
    fn free_transitively(&mut self, slot: u32) {
        let mut worklist = std::mem::take(&mut self.dec_scratch);
        debug_assert!(worklist.is_empty());
        self.free_one(slot, &mut worklist);
        while let Some(r) = worklist.pop() {
            let slot = r.as_heap().expect("worklist holds heap refs");
            let obj = &mut self.slots[slot as usize];
            debug_assert!(
                !matches!(obj.data, ObjData::Free(_)),
                "dec on freed slot {slot}"
            );
            debug_assert!(obj.rc >= 1, "dec on rc 0");
            obj.rc -= 1;
            if obj.rc == 0 {
                self.free_one(slot, &mut worklist);
            }
        }
        self.dec_scratch = worklist;
    }

    /// Frees one object: threads the slot onto the free list, queues its
    /// heap children for a deferred dec on `worklist`, and lists a
    /// constructor's field storage for reuse.
    fn free_one(&mut self, slot: u32, worklist: &mut Vec<ObjRef>) {
        let obj = &mut self.slots[slot as usize];
        let next_free = self.free_head.unwrap_or(u32::MAX);
        let data = std::mem::replace(&mut obj.data, ObjData::Free(next_free));
        self.free_head = Some(slot);
        self.stats.frees += 1;
        self.stats.live -= 1;
        self.stats.live_bytes -= obj_bytes(&data);
        match data {
            ObjData::Ctor { fields, .. } => {
                worklist.extend(fields.iter().copied().filter(|f| f.is_heap()));
                let n = fields.len();
                if n > 0 {
                    if self.ctor_pool.len() <= n {
                        self.ctor_pool.resize_with(n + 1, Vec::new);
                    }
                    self.ctor_pool[n].push(fields);
                }
            }
            ObjData::Closure { args, .. } => {
                worklist.extend(args.iter().copied().filter(|a| a.is_heap()));
            }
            ObjData::Array(elems) => {
                worklist.extend(elems.iter().copied().filter(|e| e.is_heap()));
            }
            ObjData::BigInt(_) | ObjData::Str(_) => {}
            ObjData::Free(_) => unreachable!(),
        }
    }

    // ---- arrays ------------------------------------------------------------

    /// Array length, or `None` when `r` is not a heap array — the cheap
    /// guard the VM's array fast paths branch on before touching elements.
    pub fn try_array_len(&self, r: ObjRef) -> Option<usize> {
        if !r.is_heap() {
            return None;
        }
        match self.data(r) {
            ObjData::Array(v) => Some(v.len()),
            _ => None,
        }
    }

    /// Array length.
    pub fn array_len(&self, r: ObjRef) -> usize {
        match self.data(r) {
            ObjData::Array(v) => v.len(),
            other => panic!("array_len on non-array {other:?}"),
        }
    }

    /// Reads an array element (no refcount change).
    pub fn array_get(&self, r: ObjRef, idx: usize) -> ObjRef {
        match self.data(r) {
            ObjData::Array(v) => v[idx],
            other => panic!("array_get on non-array {other:?}"),
        }
    }

    /// Functional array update with LEAN's exclusivity optimization: updates
    /// in place when `rc == 1`, otherwise copies. Consumes one reference to
    /// `arr` and takes ownership of `v`; returns the resulting array.
    pub fn array_set(&mut self, arr: ObjRef, idx: usize, v: ObjRef) -> ObjRef {
        if self.is_exclusive(arr) {
            let old = match &mut self.obj_mut(arr).data {
                ObjData::Array(elems) => std::mem::replace(&mut elems[idx], v),
                other => panic!("array_set on non-array {other:?}"),
            };
            self.dec(old);
            arr
        } else {
            let mut elems = match self.data(arr) {
                ObjData::Array(elems) => elems.clone(),
                other => panic!("array_set on non-array {other:?}"),
            };
            for &e in &elems {
                self.inc(e);
            }
            // Release the reference the caller handed us, and the +1 we gave
            // the element we are about to overwrite.
            self.dec(elems[idx]);
            elems[idx] = v;
            self.dec(arr);
            self.alloc_array(elems)
        }
    }

    /// Appends to an array with the same exclusivity optimization.
    pub fn array_push(&mut self, arr: ObjRef, v: ObjRef) -> ObjRef {
        if self.is_exclusive(arr) {
            match &mut self.obj_mut(arr).data {
                ObjData::Array(elems) => elems.push(v),
                other => panic!("array_push on non-array {other:?}"),
            }
            // The in-place push grew the array by one element word — the
            // only mutation path that changes an object's size after alloc.
            self.stats.live_bytes += 8;
            self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
            if self.byte_limit.is_some_and(|l| self.stats.live_bytes > l) {
                self.tripped = true;
            }
            arr
        } else {
            let mut elems = match self.data(arr) {
                ObjData::Array(elems) => elems.clone(),
                other => panic!("array_push on non-array {other:?}"),
            };
            for &e in &elems {
                self.inc(e);
            }
            elems.push(v);
            self.dec(arr);
            self.alloc_array(elems)
        }
    }

    // ---- strings -----------------------------------------------------------

    /// Reads a string object.
    pub fn get_str(&self, r: ObjRef) -> &str {
        match self.data(r) {
            ObjData::Str(s) => s,
            other => panic!("get_str on non-string {other:?}"),
        }
    }

    // ---- structural helpers -------------------------------------------------

    /// Deep structural equality of two values (used by the differential test
    /// harness to compare program results across pipelines).
    pub fn deep_eq(&self, a: ObjRef, b: ObjRef) -> bool {
        let mut stack = vec![(a, b)];
        while let Some((a, b)) = stack.pop() {
            if a == b {
                continue;
            }
            match (a.as_scalar(), b.as_scalar()) {
                (Some(x), Some(y)) => {
                    if x != y {
                        return false;
                    }
                }
                (None, None) => match (self.data(a), self.data(b)) {
                    (
                        ObjData::Ctor {
                            tag: t1,
                            fields: f1,
                        },
                        ObjData::Ctor {
                            tag: t2,
                            fields: f2,
                        },
                    ) => {
                        if t1 != t2 || f1.len() != f2.len() {
                            return false;
                        }
                        stack.extend(f1.iter().copied().zip(f2.iter().copied()));
                    }
                    (ObjData::BigInt(x), ObjData::BigInt(y)) => {
                        if x != y {
                            return false;
                        }
                    }
                    (ObjData::Array(x), ObjData::Array(y)) => {
                        if x.len() != y.len() {
                            return false;
                        }
                        stack.extend(x.iter().copied().zip(y.iter().copied()));
                    }
                    (ObjData::Str(x), ObjData::Str(y)) => {
                        if x != y {
                            return false;
                        }
                    }
                    (
                        ObjData::Closure {
                            func: fa, args: aa, ..
                        },
                        ObjData::Closure {
                            func: fb, args: ab, ..
                        },
                    ) => {
                        if fa != fb || aa.len() != ab.len() {
                            return false;
                        }
                        stack.extend(aa.iter().copied().zip(ab.iter().copied()));
                    }
                    _ => return false,
                },
                // Scalar vs boxed bigint holding the same value can only
                // happen if boxing discipline was violated; treat by value.
                _ => {
                    let (s, h) = if a.is_scalar() { (a, b) } else { (b, a) };
                    match self.data(h) {
                        ObjData::BigInt(i) => {
                            if i.to_i64() != s.as_scalar() {
                                return false;
                            }
                        }
                        ObjData::Ctor { tag, fields } => {
                            // Scalar-encoded enum constructor vs boxed ctor.
                            if !fields.is_empty() || s.as_scalar() != Some(*tag as i64) {
                                return false;
                            }
                        }
                        _ => return false,
                    }
                }
            }
        }
        true
    }

    /// Renders a value for display/debugging (a stable textual form used to
    /// compare outputs across pipelines).
    pub fn render(&self, r: ObjRef) -> String {
        match r.as_scalar() {
            Some(v) => v.to_string(),
            None => match self.data(r) {
                ObjData::Ctor { tag, fields } => {
                    if fields.is_empty() {
                        format!("ctor{tag}")
                    } else {
                        let fs: Vec<String> = fields.iter().map(|&f| self.render(f)).collect();
                        format!("ctor{tag}({})", fs.join(", "))
                    }
                }
                ObjData::BigInt(i) => i.to_string(),
                ObjData::Closure { func, arity, args } => {
                    format!("closure<{func}/{arity}:{}>", args.len())
                }
                ObjData::Array(elems) => {
                    let es: Vec<String> = elems.iter().map(|&e| self.render(e)).collect();
                    format!("#[{}]", es.join(", "))
                }
                ObjData::Str(s) => format!("{s:?}"),
                ObjData::Free(_) => "<freed>".to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::FuncId;

    #[test]
    fn alloc_and_free_reuses_slots() {
        let mut h = Heap::new();
        let a = h.alloc_ctor(0, vec![]);
        let slot_a = a.as_heap().unwrap();
        h.dec(a);
        assert_eq!(h.stats().live, 0);
        let b = h.alloc_ctor(1, vec![]);
        assert_eq!(b.as_heap().unwrap(), slot_a, "slot should be reused");
        assert_eq!(h.ctor_tag(b), 1);
    }

    #[test]
    fn dec_frees_transitively() {
        let mut h = Heap::new();
        let mut list = h.alloc_ctor(0, vec![]);
        for i in 0..100 {
            list = h.alloc_ctor(1, vec![ObjRef::scalar(i), list]);
        }
        assert_eq!(h.stats().live, 101);
        h.dec(list);
        assert_eq!(h.stats().live, 0);
        assert_eq!(h.stats().frees, 101);
    }

    #[test]
    fn shared_child_survives_parent_free() {
        let mut h = Heap::new();
        let child = h.alloc_ctor(7, vec![]);
        h.inc(child); // one ref for us, one for parent
        let parent = h.alloc_ctor(1, vec![child]);
        h.dec(parent);
        assert_eq!(h.stats().live, 1);
        assert_eq!(h.ctor_tag(child), 7);
        h.dec(child);
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn deep_list_free_does_not_overflow_stack() {
        let mut h = Heap::new();
        let mut list = h.alloc_ctor(0, vec![]);
        for _ in 0..1_000_000 {
            list = h.alloc_ctor(1, vec![ObjRef::scalar(0), list]);
        }
        h.dec(list);
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn mk_nat_boxes_only_large() {
        let mut h = Heap::new();
        let small = h.mk_nat(Nat::from_u64(12345));
        assert!(small.is_scalar());
        let big = h.mk_nat(Nat::from_u64(u64::MAX));
        assert!(big.is_heap());
        assert_eq!(h.get_nat(big).to_u64(), Some(u64::MAX));
    }

    #[test]
    fn mk_int_negative_scalars() {
        let mut h = Heap::new();
        let v = h.mk_int(Int::from_i64(-5));
        assert_eq!(v.as_scalar(), Some(-5));
        let big = h.mk_int(Int::from_i64(i64::MIN));
        assert!(big.is_heap());
        assert_eq!(h.get_int(big).to_i64(), Some(i64::MIN));
    }

    #[test]
    fn array_set_exclusive_in_place() {
        let mut h = Heap::new();
        let arr = h.alloc_array(vec![ObjRef::scalar(1), ObjRef::scalar(2)]);
        let arr2 = h.array_set(arr, 0, ObjRef::scalar(9));
        assert_eq!(arr, arr2, "exclusive update must be in place");
        assert_eq!(h.array_get(arr2, 0).as_scalar(), Some(9));
        assert_eq!(h.stats().allocs, 1);
    }

    #[test]
    fn array_set_shared_copies() {
        let mut h = Heap::new();
        let arr = h.alloc_array(vec![ObjRef::scalar(1), ObjRef::scalar(2)]);
        h.inc(arr); // simulate sharing
        let arr2 = h.array_set(arr, 0, ObjRef::scalar(9));
        assert_ne!(arr, arr2, "shared update must copy");
        assert_eq!(h.array_get(arr, 0).as_scalar(), Some(1));
        assert_eq!(h.array_get(arr2, 0).as_scalar(), Some(9));
        h.dec(arr);
        h.dec(arr2);
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn array_set_shared_preserves_heap_elements() {
        let mut h = Heap::new();
        let elem = h.alloc_ctor(3, vec![]);
        let arr = h.alloc_array(vec![elem, ObjRef::scalar(0)]);
        h.inc(arr);
        let arr2 = h.array_set(arr, 1, ObjRef::scalar(5));
        // `elem` is now referenced by both arrays.
        assert_eq!(h.rc(elem), 2);
        h.dec(arr);
        h.dec(arr2);
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn array_push_shared_and_exclusive() {
        let mut h = Heap::new();
        let arr = h.alloc_array(vec![]);
        let arr = h.array_push(arr, ObjRef::scalar(1));
        let arr = h.array_push(arr, ObjRef::scalar(2));
        assert_eq!(h.array_len(arr), 2);
        h.inc(arr);
        let arr2 = h.array_push(arr, ObjRef::scalar(3));
        assert_ne!(arr, arr2);
        assert_eq!(h.array_len(arr), 2);
        assert_eq!(h.array_len(arr2), 3);
        h.dec(arr);
        h.dec(arr2);
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn deep_eq_structures() {
        let mut h = Heap::new();
        let n1 = h.alloc_ctor(0, vec![]);
        let n2 = h.alloc_ctor(0, vec![]);
        let l1 = h.alloc_ctor(1, vec![ObjRef::scalar(5), n1]);
        let l2 = h.alloc_ctor(1, vec![ObjRef::scalar(5), n2]);
        assert!(h.deep_eq(l1, l2));
        let l3 = h.alloc_ctor(1, vec![ObjRef::scalar(6), l1]);
        assert!(!h.deep_eq(l2, l3));
    }

    #[test]
    fn deep_eq_scalar_vs_boxed_ctor() {
        let mut h = Heap::new();
        let boxed_true = h.alloc_ctor(1, vec![]);
        assert!(h.deep_eq(ObjRef::scalar(1), boxed_true));
        assert!(!h.deep_eq(ObjRef::scalar(0), boxed_true));
    }

    #[test]
    fn render_values() {
        let mut h = Heap::new();
        let nil = h.alloc_ctor(0, vec![]);
        let cons = h.alloc_ctor(1, vec![ObjRef::scalar(3), nil]);
        assert_eq!(h.render(cons), "ctor1(3, ctor0)");
        let arr = h.alloc_array(vec![ObjRef::scalar(1)]);
        assert_eq!(h.render(arr), "#[1]");
        let clos = h.alloc_closure(FuncId(2), 3, vec![ObjRef::scalar(0)]);
        assert_eq!(h.render(clos), "closure<@fn2/3:1>");
    }

    #[test]
    fn byte_accounting_tracks_alloc_free_and_push() {
        let mut h = Heap::new();
        let arr = h.alloc_array(vec![ObjRef::scalar(1)]);
        assert_eq!(h.stats().live_bytes, 16 + 8);
        let arr = h.array_push(arr, ObjRef::scalar(2));
        assert_eq!(h.stats().live_bytes, 16 + 16, "in-place push adds a word");
        let s = h.alloc_str("hello".to_string());
        assert_eq!(h.stats().live_bytes, 16 + 16 + 16 + 5);
        assert_eq!(h.stats().peak_bytes, h.stats().live_bytes);
        h.dec(s);
        h.dec(arr);
        assert_eq!(h.stats().live_bytes, 0);
        assert_eq!(h.stats().peak_bytes, 16 + 16 + 16 + 5);
    }

    #[test]
    fn byte_limit_trips_sticky() {
        let mut h = Heap::new();
        h.set_byte_limit(Some(64));
        let mut keep = Vec::new();
        for i in 0..4 {
            keep.push(h.alloc_ctor(0, vec![ObjRef::scalar(i)]));
        }
        assert!(h.over_budget(), "4 * 24 bytes must exceed the 64-byte cap");
        // Freeing below the cap does not clear the trip: it is sticky so the
        // VM's checkpoint can observe it after the fact.
        for r in keep {
            h.dec(r);
        }
        assert!(h.over_budget());
        h.clear_budget_trip();
        assert!(!h.over_budget());
    }

    #[test]
    fn trip_alloc_fault_injection() {
        let mut h = Heap::new();
        h.set_trip_alloc(Some(3));
        h.alloc_ctor(0, vec![]);
        h.alloc_ctor(0, vec![]);
        assert!(!h.over_budget());
        h.alloc_ctor(0, vec![]);
        assert!(h.over_budget(), "third allocation must trip the fault");
    }

    #[test]
    fn free_all_reclaims_everything_and_balances() {
        let mut h = Heap::new();
        let keep = h.alloc_ctor(0, vec![]);
        let mut list = h.alloc_ctor(0, vec![]);
        for i in 0..10 {
            list = h.alloc_ctor(1, vec![ObjRef::scalar(i), list]);
        }
        h.dec(keep); // one slot already on the free list
        assert_eq!(h.live_objects(), h.stats().live);
        let freed = h.free_all();
        assert_eq!(freed, 11);
        assert_eq!(h.stats().live, 0);
        assert_eq!(h.live_objects(), 0);
        assert_eq!(h.stats().allocs, h.stats().frees);
        assert_eq!(h.stats().live_bytes, 0);
        // The arena is fully reusable afterwards.
        let again = h.alloc_ctor(9, vec![]);
        assert_eq!(h.ctor_tag(again), 9);
        assert_eq!(h.stats().live, 1);
    }

    /// Boxes listed for reuse, by field count.
    fn listed(h: &Heap, n: usize) -> usize {
        h.ctor_pool.get(n).map_or(0, Vec::len)
    }

    #[test]
    fn freed_field_storage_is_reused_only_for_the_same_field_count() {
        let mut h = Heap::new();
        let pair = h.alloc_ctor(1, [ObjRef::scalar(1), ObjRef::scalar(2)]);
        h.dec(pair);
        assert_eq!(listed(&h, 2), 1);
        let one = h.alloc_ctor(1, [ObjRef::scalar(3)]);
        let triple = h.alloc_ctor(1, [ObjRef::scalar(4); 3]);
        assert_eq!(h.stats().ctor_reuses, 0, "other field counts allocate");
        assert_eq!(listed(&h, 2), 1);
        let pair = h.alloc_ctor(2, [ObjRef::scalar(5), ObjRef::scalar(6)]);
        assert_eq!(h.stats().ctor_reuses, 1);
        assert_eq!(listed(&h, 2), 0);
        for r in [one, triple, pair] {
            h.dec(r);
        }
        assert_eq!((listed(&h, 1), listed(&h, 2), listed(&h, 3)), (1, 1, 1));
        assert_eq!(h.stats().ctor_allocs, 4, "reuse keeps the object counts");
    }

    #[test]
    fn recycled_constructor_holds_exactly_its_new_fields() {
        let mut h = Heap::new();
        let child = h.alloc_ctor(7, [ObjRef::scalar(70)]);
        let old = h.alloc_ctor(1, [ObjRef::scalar(10), child, ObjRef::scalar(30)]);
        h.dec(old); // frees `child` too; both boxes are listed
        let fresh = h.alloc_ctor(2, [ObjRef::scalar(4), ObjRef::scalar(5), ObjRef::scalar(6)]);
        assert_eq!(h.stats().ctor_reuses, 1);
        assert_eq!(h.render(fresh), "ctor2(4, 5, 6)");
        assert_eq!(h.stats().live_bytes, 16 + 3 * 8);
        h.dec(fresh);
        assert_eq!(h.stats().live, 0);
    }

    #[test]
    fn zero_field_constructors_never_touch_the_lists() {
        let mut h = Heap::new();
        let nils: Vec<ObjRef> = (0..4).map(|_| h.alloc_ctor(0, [])).collect();
        for r in nils {
            h.dec(r);
        }
        let _nil = h.alloc_ctor(0, []);
        assert_eq!(listed(&h, 0), 0);
        assert_eq!(h.stats().ctor_reuses, 0);
    }

    #[test]
    #[should_panic(expected = "ended early")]
    fn short_field_iterator_is_rejected() {
        /// Claims three fields, yields one.
        struct Liar(bool);
        impl Iterator for Liar {
            type Item = ObjRef;
            fn next(&mut self) -> Option<ObjRef> {
                std::mem::take(&mut self.0).then(|| ObjRef::scalar(1))
            }
        }
        impl ExactSizeIterator for Liar {
            fn len(&self) -> usize {
                3
            }
        }
        let mut h = Heap::new();
        let triple = h.alloc_ctor(0, [ObjRef::scalar(0); 3]);
        h.dec(triple);
        h.alloc_ctor(0, Liar(true));
    }

    #[test]
    fn free_all_empties_the_lists() {
        let mut h = Heap::new();
        let mut list = h.alloc_ctor(0, []);
        for i in 0..10 {
            list = h.alloc_ctor(1, [ObjRef::scalar(i), list]);
        }
        let head = h.ctor_field(list, 1);
        h.inc(head);
        h.dec(list);
        assert_eq!(listed(&h, 2), 1);
        h.free_all();
        assert!(h.ctor_pool.iter().all(Vec::is_empty));
        let pair = h.alloc_ctor(1, [ObjRef::scalar(1), ObjRef::scalar(2)]);
        assert_eq!(h.stats().ctor_reuses, 0);
        assert_eq!(h.render(pair), "ctor1(1, 2)");
    }

    #[test]
    fn boxes_held_never_exceed_the_peak_of_live_constructors() {
        // A seeded mix of allocations (1–6 fields, some pointing at live
        // objects) and decs. After every step, for every field count, the
        // boxes held — live constructors plus listed boxes — equal that
        // count's high-water mark of live constructors.
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut h = Heap::new();
        let mut roots: Vec<ObjRef> = Vec::new();
        let mut peak = [0usize; 7];
        for _ in 0..20_000 {
            if roots.is_empty() || next(5) < 3 {
                let n = 1 + next(6) as usize;
                let fields: Vec<ObjRef> = (0..n)
                    .map(|_| match roots.len() {
                        0 => ObjRef::scalar(0),
                        len => {
                            let r = roots[next(len as u64) as usize];
                            h.inc(r);
                            r
                        }
                    })
                    .collect();
                roots.push(h.alloc_ctor(0, fields));
            } else {
                let r = roots.swap_remove(next(roots.len() as u64) as usize);
                h.dec(r);
            }
            let mut live = [0usize; 7];
            for o in &h.slots {
                if let ObjData::Ctor { fields, .. } = &o.data {
                    live[fields.len()] += 1;
                }
            }
            for n in 1..7 {
                peak[n] = peak[n].max(live[n]);
                assert_eq!(live[n] + listed(&h, n), peak[n], "field count {n}");
            }
        }
        assert!(h.stats().ctor_reuses > 0);
    }

    #[test]
    fn peak_live_tracking() {
        let mut h = Heap::new();
        let a = h.alloc_ctor(0, vec![]);
        let b = h.alloc_ctor(0, vec![]);
        h.dec(a);
        h.dec(b);
        let _c = h.alloc_ctor(0, vec![]);
        assert_eq!(h.stats().peak_live, 2);
        assert_eq!(h.stats().live, 1);
    }
}
