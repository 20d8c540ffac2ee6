//! Allocation accounting: a counting `#[global_allocator]` wrapper that
//! attributes heap traffic to the active telemetry span.
//!
//! ## Overhead policy
//!
//! Accounting is **off by default**. The wrapper delegates straight to
//! [`std::alloc::System`] and pays exactly one relaxed atomic load per
//! call when disabled — the same contract as the parent crate's event
//! switch. Enable with `MULTICLUST_ALLOC=1` (read once, from the crate's
//! cold-path env init or [`init_from_env`]) or [`set_alloc_enabled`].
//!
//! ## Attribution model
//!
//! Each thread carries a current *slot* — an index into a fixed table of
//! atomic counters — set by [`crate::span`] to the slot of the innermost
//! span open on that thread and restored when the guard drops. An
//! allocation is charged (count, bytes, live delta) to the allocating
//! thread's current slot; threads outside any span, and allocations made
//! before telemetry is enabled, charge slot 0 (`(unattributed)`).
//! Deallocations subtract from the *freeing* thread's current slot, so a
//! buffer allocated in one phase and dropped in another shows up as
//! positive live bytes in the first and negative in the second — live
//! per-slot is a flow, not a residence census; the per-slot **peak** is
//! the high-water mark of that flow and the number to read for "how much
//! memory did this phase hold". A process-wide live/peak pair is kept
//! exactly (every alloc/free updates it) for the metrics gauges.
//!
//! ## Safety
//!
//! This is the one module in the crate that needs `unsafe` (the
//! [`GlobalAlloc`] trait is unsafe to implement); the crate root demotes
//! `forbid(unsafe_code)` to `deny` solely for this file. The recording
//! path must never allocate or take a lock: it touches only atomics and a
//! const-initialised thread-local `Cell` (read with `try_with`, so a
//! late-TLS-destruction allocation falls back to slot 0 instead of
//! aborting).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// Maximum distinct span paths with their own accounting slot; later
/// paths fold into slot 0.
pub const MAX_ALLOC_SLOTS: usize = 256;

/// 0 = uninitialised (treated as off), 1 = off, 2 = on. The allocator
/// itself never initialises from the environment — reading an env var
/// can allocate, and the allocator must not recurse — so state 0 stays
/// "off" until a cold path outside the allocator calls [`init_from_env`].
static ALLOC_STATE: AtomicU8 = AtomicU8::new(0);

struct Slot {
    count: AtomicU64,
    bytes: AtomicU64,
    live: AtomicI64,
    peak: AtomicI64,
}

impl Slot {
    const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicI64::new(0),
            peak: AtomicI64::new(0),
        }
    }
}

static SLOTS: [Slot; MAX_ALLOC_SLOTS] = [const { Slot::new() }; MAX_ALLOC_SLOTS];

/// Process-wide live bytes / high-water mark, updated on every alloc and
/// free regardless of slot — the exact gauges the metrics stream samples.
static GLOBAL_LIVE: AtomicI64 = AtomicI64::new(0);
static GLOBAL_PEAK: AtomicI64 = AtomicI64::new(0);

/// Span path for each used slot; index = slot id. Slot 0 is implicit and
/// never stored here. Only touched from [`slot_for_path`]/[`slot_paths`]
/// (span open, snapshot) — never from the allocator.
static SLOT_PATHS: Mutex<Vec<String>> = Mutex::new(Vec::new());

thread_local! {
    /// The slot allocations on this thread are charged to. Const-init so
    /// reading it inside the allocator cannot itself allocate.
    static CURRENT_SLOT: Cell<usize> = const { Cell::new(0) };
}

/// Whether allocation accounting is currently on (one relaxed load).
#[inline]
pub fn alloc_enabled() -> bool {
    ALLOC_STATE.load(Ordering::Relaxed) == 2
}

/// Turns allocation accounting on or off for the whole process,
/// overriding the environment. Existing tallies are kept — use
/// [`reset_alloc`] to zero them.
pub fn set_alloc_enabled(on: bool) {
    ALLOC_STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Reads `MULTICLUST_ALLOC` once and arms the allocator accordingly.
/// Must be called from ordinary code (CLI startup, the telemetry env
/// init) — never from inside the allocator.
pub fn init_from_env() {
    if ALLOC_STATE.load(Ordering::Relaxed) != 0 {
        return;
    }
    let on = std::env::var("MULTICLUST_ALLOC").is_ok_and(|v| {
        let v = v.trim().to_ascii_lowercase();
        !(v.is_empty() || v == "0" || v == "false" || v == "off")
    });
    // Only flip from "uninitialised" so a racing `set_alloc_enabled` wins.
    let _ = ALLOC_STATE.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
}

/// Resolves (or creates) the accounting slot for a span path. Returns 0
/// when the table is full. Called on span open — allocation here is fine;
/// the allocator never takes the path lock.
pub(crate) fn slot_for_path(path: &str) -> usize {
    let mut paths = SLOT_PATHS.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(i) = paths.iter().position(|p| p == path) {
        return i + 1;
    }
    if paths.len() + 1 >= MAX_ALLOC_SLOTS {
        return 0;
    }
    paths.push(path.to_string());
    paths.len()
}

/// Installs `slot` as this thread's charge target, returning the previous
/// target for the span guard to restore.
pub(crate) fn swap_current_slot(slot: usize) -> usize {
    CURRENT_SLOT.with(|c| c.replace(slot))
}

/// Restores a previously swapped-out charge target.
pub(crate) fn set_current_slot(slot: usize) {
    CURRENT_SLOT.with(|c| c.set(slot));
}

/// Accounting for one slot (or the whole process, via [`alloc_totals`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocStat {
    /// Allocations charged (reallocs count once).
    pub count: u64,
    /// Bytes allocated, cumulative.
    pub bytes: u64,
    /// High-water mark of the slot's live-byte flow (see the attribution
    /// model note in the module docs).
    pub peak: u64,
}

/// Process-wide gauges for the metrics stream (field order is the
/// snapshot's `alloc` key order).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct AllocGauges {
    /// Total allocations charged since start/reset.
    pub count: u64,
    /// Total bytes allocated since start/reset.
    pub bytes: u64,
    /// Bytes currently live (allocated minus freed while accounting on).
    pub live: i64,
    /// Process-wide live high-water mark.
    pub peak: u64,
}

/// Per-span-path accounting, sorted by path. Slot 0's residue is reported
/// under `(unattributed)` when non-empty.
pub fn alloc_by_path() -> Vec<(String, AllocStat)> {
    let paths = SLOT_PATHS.lock().unwrap_or_else(|p| p.into_inner()).clone();
    let mut out = Vec::with_capacity(paths.len() + 1);
    let read = |slot: &Slot| AllocStat {
        count: slot.count.load(Ordering::Relaxed),
        bytes: slot.bytes.load(Ordering::Relaxed),
        peak: u64::try_from(slot.peak.load(Ordering::Relaxed)).unwrap_or(0),
    };
    let root = read(&SLOTS[0]);
    if root != AllocStat::default() {
        out.push(("(unattributed)".to_string(), root));
    }
    for (i, path) in paths.iter().enumerate() {
        let stat = read(&SLOTS[i + 1]);
        if stat != AllocStat::default() {
            out.push((path.clone(), stat));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Process-wide totals (sum over slots) plus the exact live/peak gauges.
pub fn alloc_totals() -> AllocGauges {
    let mut count = 0u64;
    let mut bytes = 0u64;
    for slot in &SLOTS {
        count += slot.count.load(Ordering::Relaxed);
        bytes += slot.bytes.load(Ordering::Relaxed);
    }
    AllocGauges {
        count,
        bytes,
        live: GLOBAL_LIVE.load(Ordering::Relaxed),
        peak: u64::try_from(GLOBAL_PEAK.load(Ordering::Relaxed)).unwrap_or(0),
    }
}

/// Zeroes every tally and gauge. The slot table (path → slot mapping) and
/// the on/off switch are kept.
pub fn reset_alloc() {
    for slot in &SLOTS {
        slot.count.store(0, Ordering::Relaxed);
        slot.bytes.store(0, Ordering::Relaxed);
        slot.live.store(0, Ordering::Relaxed);
        slot.peak.store(0, Ordering::Relaxed);
    }
    GLOBAL_LIVE.store(0, Ordering::Relaxed);
    GLOBAL_PEAK.store(0, Ordering::Relaxed);
}

// ---- the allocator itself --------------------------------------------------

#[inline]
fn record_alloc(size: usize) {
    let size = size as u64;
    // `try_with` instead of `with`: an allocation during TLS teardown
    // must fall back to slot 0, not abort the process.
    let slot = CURRENT_SLOT.try_with(|c| c.get()).unwrap_or(0);
    let slot = &SLOTS[slot.min(MAX_ALLOC_SLOTS - 1)];
    slot.count.fetch_add(1, Ordering::Relaxed);
    slot.bytes.fetch_add(size, Ordering::Relaxed);
    let live = slot.live.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    slot.peak.fetch_max(live, Ordering::Relaxed);
    let g = GLOBAL_LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    GLOBAL_PEAK.fetch_max(g, Ordering::Relaxed);
}

#[inline]
fn record_dealloc(size: usize) {
    let slot = CURRENT_SLOT.try_with(|c| c.get()).unwrap_or(0);
    let slot = &SLOTS[slot.min(MAX_ALLOC_SLOTS - 1)];
    slot.live.fetch_sub(size as i64, Ordering::Relaxed);
    GLOBAL_LIVE.fetch_sub(size as i64, Ordering::Relaxed);
}

/// The counting wrapper around [`System`]. Installed as the workspace's
/// global allocator by linking this crate; a single relaxed load when
/// accounting is off.
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    #[inline]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if ALLOC_STATE.load(Ordering::Relaxed) == 2 && !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    #[inline]
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if ALLOC_STATE.load(Ordering::Relaxed) == 2 && !ptr.is_null() {
            record_alloc(layout.size());
        }
        ptr
    }

    #[inline]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if ALLOC_STATE.load(Ordering::Relaxed) == 2 {
            record_dealloc(layout.size());
        }
    }

    #[inline]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if ALLOC_STATE.load(Ordering::Relaxed) == 2 && !new_ptr.is_null() {
            record_dealloc(layout.size());
            record_alloc(new_size);
        }
        new_ptr
    }
}

/// Every binary, test and bench that links `multiclust-telemetry` runs on
/// the counting wrapper; with accounting off that is `System` plus one
/// relaxed load (quoted by the `alloc_overhead` criterion group).
#[global_allocator]
static GLOBAL_ALLOCATOR: CountingAllocator = CountingAllocator;

#[cfg(test)]
mod tests {
    use super::*;

    /// Alloc state and tallies are process-global and also flipped by the
    /// lib tests; serialize on the crate-wide test lock.
    fn serialized<T>(f: impl FnOnce() -> T) -> T {
        let _guard = crate::TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                set_alloc_enabled(false);
                set_current_slot(0);
                reset_alloc();
            }
        }
        let _restore = Restore;
        set_alloc_enabled(true);
        reset_alloc();
        f()
    }

    // Both tests below measure a slot of their own: only the thread that
    // installs a slot charges it, whereas process-wide tallies also move
    // with other test threads — a block allocated before `reset_alloc()`
    // and freed after it drives the global live gauge below zero, so a
    // later allocation need not lift the global peak.

    #[test]
    fn disabled_counts_nothing() {
        serialized(|| {
            set_alloc_enabled(false);
            let slot = slot_for_path("test.alloc.disabled");
            let prev = swap_current_slot(slot);
            let v: Vec<u8> = Vec::with_capacity(4096);
            drop(v);
            set_current_slot(prev);
            let by_path = alloc_by_path();
            assert!(
                by_path.iter().all(|(p, _)| p != "test.alloc.disabled"),
                "{by_path:?}"
            );
        });
    }

    #[test]
    fn allocations_charge_the_current_slot() {
        serialized(|| {
            let slot = slot_for_path("test.alloc.phase");
            assert_ne!(slot, 0);
            let prev = swap_current_slot(slot);
            let v: Vec<u8> = Vec::with_capacity(10_000);
            set_current_slot(prev);
            let by_path = alloc_by_path();
            let (_, stat) = by_path
                .iter()
                .find(|(p, _)| p == "test.alloc.phase")
                .expect("slot reported");
            assert!(stat.count >= 1);
            assert!(stat.bytes >= 10_000, "bytes = {}", stat.bytes);
            assert!(stat.peak >= 10_000);
            drop(v);
            // Cumulative totals sum every slot, ours included, and never
            // fall when other threads free.
            let totals = alloc_totals();
            assert!(totals.count >= stat.count);
            assert!(totals.bytes >= stat.bytes);
        });
    }

    #[test]
    fn slot_table_full_falls_back_to_zero() {
        serialized(|| {
            // The table is process-global; remember its length and shrink
            // back afterwards so other tests still get fresh slots.
            let before = SLOT_PATHS.lock().unwrap_or_else(|p| p.into_inner()).len();
            let mut last = 1;
            for i in 0..MAX_ALLOC_SLOTS + 8 {
                last = slot_for_path(&format!("test.alloc.slot-fill-{i}"));
            }
            assert_eq!(last, 0, "overflow paths must fold into slot 0");
            SLOT_PATHS.lock().unwrap_or_else(|p| p.into_inner()).truncate(before);
        });
    }
}
