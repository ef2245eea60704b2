//! A debug-build runtime lock-order tracker: the dynamic twin of
//! `uuidp-lint`'s static `lock-cycle` rule.
//!
//! The static rule sees nested acquisitions the lexer can name; this
//! tracker sees the ones it cannot — guards passed through calls,
//! locks reached via trait objects, orderings that only materialize on
//! rare paths. Each lock site wraps its acquisition in [`track`]; the
//! tracker keeps a thread-local stack of live labels and a global
//! acquired-while-holding edge set, and the first acquisition that
//! closes a cycle in that graph panics naming both sides — in the test
//! run that first exhibits the ordering, not in the production
//! deadlock it would become.
//!
//! Everything compiles to nothing in release builds: [`track`] returns
//! a zero-sized token and touches no globals unless
//! `debug_assertions` are on.
//!
//! ```
//! use uuidp_core::lockorder;
//!
//! struct S { a: std::sync::Mutex<u32> }
//! impl S {
//!     fn bump(&self) {
//!         let _order = lockorder::track("S.a");
//!         let mut g = self.a.lock().expect("a");
//!         *g += 1;
//!     }
//! }
//! ```

use std::panic::Location;

#[cfg(debug_assertions)]
mod imp {
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::panic::Location;
    use std::sync::Mutex;

    /// An acquisition site: the `track` call's location, static for the
    /// life of the process, so recording one allocates nothing.
    type Site = &'static Location<'static>;

    /// An acquired-while-holding graph: `edges[from]` is the set of
    /// `(to, from_site, to_site)` orderings observed so far.
    type Edges = BTreeMap<&'static str, BTreeSet<(&'static str, Site, Site)>>;

    /// The process's global graph.
    static EDGES: Mutex<Edges> = Mutex::new(BTreeMap::new());

    thread_local! {
        /// The labels (and sites) of locks this thread currently holds,
        /// outermost first.
        static HELD: RefCell<Vec<(&'static str, Site)>> = const { RefCell::new(Vec::new()) };
    }

    /// Records `label` acquired at `site` while everything on this
    /// thread's stack is held; panics if the new edges close a cycle.
    pub fn acquire(label: &'static str, site: Site) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(outer, outer_site)) = held.last() {
                if outer != label {
                    // Poison recovery: the cycle panic below happens
                    // while this guard is held, and a poisoned graph
                    // must not cascade into every later acquisition.
                    let mut edges = EDGES.lock().unwrap_or_else(|e| e.into_inner());
                    // An edge seen before closed no cycle then, and the
                    // graph has only grown since by edges that were each
                    // checked as they landed: only a new one can close
                    // a cycle.
                    let new = edges
                        .entry(outer)
                        .or_default()
                        .insert((label, outer_site, site));
                    if let Some(path) = new.then(|| find_path(&edges, label, outer)).flatten() {
                        // `outer -> label` just landed, and `label ->
                        // ... -> outer` already existed: name both ends.
                        panic!(
                            "lock-order cycle: `{outer}` (held, acquired at {}) \
                             then `{label}` (at {}), but the reverse order \
                             {path} was already observed elsewhere",
                            at(outer_site),
                            at(site)
                        );
                    }
                }
            }
            held.push((label, site));
        });
    }

    /// A site as `file:line`.
    fn at(site: Site) -> String {
        format!("{}:{}", site.file(), site.line())
    }

    /// Pops `label` off this thread's stack (out-of-order drops are
    /// tolerated: the matching entry is removed wherever it sits).
    pub fn release(label: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(at) = held.iter().rposition(|&(l, _)| l == label) {
                held.remove(at);
            }
        });
    }

    /// DFS: is `to` reachable from `from` in the edge graph? Returns a
    /// rendered `a -> b -> c` path for the panic message.
    fn find_path(edges: &Edges, from: &'static str, to: &'static str) -> Option<String> {
        let mut stack = vec![(from, vec![from])];
        let mut seen = BTreeSet::new();
        while let Some((node, path)) = stack.pop() {
            if node == to {
                return Some(path.join(" -> "));
            }
            if !seen.insert(node) {
                continue;
            }
            if let Some(nexts) = edges.get(node) {
                for &(next, _, _) in nexts {
                    if !seen.contains(next) {
                        let mut p = path.clone();
                        p.push(next);
                        stack.push((next, p));
                    }
                }
            }
        }
        None
    }
}

/// A live lock-order entry. Create one with [`track`] immediately
/// before acquiring the lock it names, and keep it alive exactly as
/// long as the guard; dropping it pops the label off the thread's
/// held stack.
#[must_use = "the tracker entry must live as long as the lock guard"]
pub struct Tracked {
    #[cfg(debug_assertions)]
    label: &'static str,
}

impl Drop for Tracked {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        imp::release(self.label);
    }
}

/// Declares that the calling thread is about to acquire the lock named
/// `label` (pick one stable label per lock, e.g. `"client.writer"`).
/// In debug builds this records the ordering against every lock the
/// thread already holds and panics — naming both acquisition sites —
/// if the ordering contradicts one observed anywhere else in the
/// process. In release builds it is free.
#[track_caller]
pub fn track(label: &'static str) -> Tracked {
    // Capture the call site in both build profiles so the signature
    // cannot drift; release builds discard it.
    let location = Location::caller();
    #[cfg(debug_assertions)]
    {
        imp::acquire(label, location);
        Tracked { label }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (label, location);
        Tracked {}
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    // Labels are process-global, so every test uses its own.

    #[test]
    fn consistent_order_is_silent() {
        for _ in 0..3 {
            let a = track("t1.alpha");
            let b = track("t1.beta");
            drop(b);
            drop(a);
        }
    }

    #[test]
    fn reentrant_same_label_is_silent() {
        let a = track("t2.alpha");
        let a2 = track("t2.alpha");
        drop(a2);
        drop(a);
    }

    #[test]
    fn reversed_order_panics_naming_both_sites() {
        let a = track("t3.alpha");
        let b = track("t3.beta");
        drop(b);
        drop(a);
        let err = std::panic::catch_unwind(|| {
            let b = track("t3.beta");
            let a = track("t3.alpha");
            drop(a);
            drop(b);
        })
        .expect_err("reversed acquisition must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("t3.alpha"), "panic names alpha: {msg}");
        assert!(msg.contains("t3.beta"), "panic names beta: {msg}");
        assert!(msg.contains("lockorder.rs:"), "panic carries sites: {msg}");
    }

    #[test]
    fn transitive_cycles_are_caught() {
        {
            let a = track("t4.a");
            let _b = track("t4.b");
            drop(a);
        }
        {
            let b = track("t4.b");
            let _c = track("t4.c");
            drop(b);
        }
        let err = std::panic::catch_unwind(|| {
            let c = track("t4.c");
            let a = track("t4.a");
            drop(a);
            drop(c);
        })
        .expect_err("transitive reversal must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("t4.a -> t4.b -> t4.c") || msg.contains("t4.a"),
            "{msg}"
        );
    }
}
