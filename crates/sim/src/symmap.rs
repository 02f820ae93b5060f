//! Dense maps keyed by interned [`Symbol`]s.
//!
//! The fabric dispatch, health/reliability, steering-queue and store
//! paths all keep small per-topic or per-name tables that are looked up
//! once or more per task. A `BTreeMap<Symbol, _>` pays a string-compare
//! tree walk on every lookup even though a [`Symbol`] already carries a
//! dense `u32` id. [`SymbolMap`] spends that id directly: `get` is one
//! bounds check plus one index, `insert` amortizes to the same, and no
//! per-operation allocation happens after the slot table has grown to
//! cover the interner.
//!
//! Iteration order is part of the determinism contract: every map that
//! feeds the trace digest must iterate exactly like the
//! `BTreeMap<String, _>` it replaced. `SymbolMap` therefore keeps a
//! side list of keys sorted by *resolved string* (the same order
//! `Symbol`'s `Ord` provides) and iterates through it. Inserting a new
//! key is `O(n)` in the number of keys — these tables are built at
//! deploy time and mutated rarely, while lookups happen per task — and
//! lookups never touch the sorted list at all.

use crate::intern::Symbol;
use std::fmt;

/// A map from [`Symbol`] to `T` with O(1) id-indexed lookup and
/// deterministic resolved-string iteration order.
///
/// Semantically a drop-in replacement for `BTreeMap<Symbol, T>`: the
/// iteration order of [`SymbolMap::iter`], [`keys`](SymbolMap::keys)
/// and [`values`](SymbolMap::values) matches what the B-tree (ordered
/// by resolved string) would produce, so digest-visible code paths are
/// bit-identical after conversion.
#[derive(Clone)]
pub struct SymbolMap<T> {
    /// Value slots indexed by `Symbol::id()`. Holes are `None`.
    slots: Vec<Option<T>>,
    /// Keys present, sorted by resolved string (`Symbol`'s `Ord`).
    order: Vec<Symbol>,
}

impl<T> Default for SymbolMap<T> {
    fn default() -> Self {
        SymbolMap { slots: Vec::new(), order: Vec::new() }
    }
}

impl<T> SymbolMap<T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no keys are present.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// O(1): the value for `key`, if present.
    #[inline]
    pub fn get(&self, key: Symbol) -> Option<&T> {
        self.slots.get(key.id() as usize)?.as_ref()
    }

    /// True when `key` has a value.
    #[inline]
    pub fn contains_key(&self, key: Symbol) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `value` for `key`, returning the previous value if any.
    ///
    /// First insertion of a key is O(n) (sorted-order bookkeeping);
    /// overwriting an existing key is O(1).
    pub fn insert(&mut self, key: Symbol, value: T) -> Option<T> {
        let idx = key.id() as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        let prev = self.slots[idx].replace(value);
        if prev.is_none() {
            // `Symbol::Ord` compares resolved strings, so a binary
            // search over `order` lands at the BTreeMap<String,_> spot.
            let at = self.order.binary_search(&key).unwrap_or_else(|e| e);
            self.order.insert(at, key);
        }
        prev
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: Symbol) -> Option<T> {
        let v = self.slots.get_mut(key.id() as usize)?.take()?;
        if let Ok(at) = self.order.binary_search(&key) {
            self.order.remove(at);
        }
        Some(v)
    }

    /// Returns the value for `key`, inserting `default()` first when
    /// absent.
    #[expect(clippy::expect_used, reason = "the branch above just inserted the slot")]
    pub fn get_or_insert_with(&mut self, key: Symbol, default: impl FnOnce() -> T) -> &mut T {
        if !self.contains_key(key) {
            self.insert(key, default());
        }
        self.slots[key.id() as usize].as_mut().expect("slot populated just above")
    }

    /// Key/value pairs in resolved-string order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &T)> + '_ {
        self.order.iter().map(|&k| {
            #[expect(
                clippy::expect_used,
                reason = "insert/remove keep order and slots in lockstep"
            )]
            let v = self.slots[k.id() as usize]
                .as_ref()
                .expect("order list only holds populated keys");
            (k, v)
        })
    }

    /// Keys in resolved-string order.
    pub fn keys(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.order.iter().copied()
    }

    /// Values in resolved-string key order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.iter().map(|(_, v)| v)
    }
}

impl<T: fmt::Debug> fmt::Debug for SymbolMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for SymbolMap<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .zip(other.iter())
                .all(|((ka, va), (kb, vb))| ka == kb && va == vb)
    }
}

impl<T> FromIterator<(Symbol, T)> for SymbolMap<T> {
    fn from_iter<I: IntoIterator<Item = (Symbol, T)>>(iter: I) -> Self {
        let mut m = SymbolMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove() {
        let a = Symbol::intern("symmap-a");
        let b = Symbol::intern("symmap-b");
        let mut m = SymbolMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(a, 1), None);
        assert_eq!(m.insert(b, 2), None);
        assert_eq!(m.insert(a, 3), Some(1));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(a), Some(&3));
        assert_eq!(m.insert(b, 9), Some(2));
        assert_eq!(m.remove(b), Some(9));
        assert_eq!(m.remove(b), None);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(a));
        assert!(!m.contains_key(b));
    }

    #[test]
    fn get_or_insert_with() {
        let k = Symbol::intern("symmap-goi");
        let mut m: SymbolMap<Vec<u32>> = SymbolMap::new();
        m.get_or_insert_with(k, Vec::new).push(1);
        m.get_or_insert_with(k, || panic!("must not rebuild")).push(2);
        assert_eq!(m.get(k), Some(&vec![1, 2]));
    }

    #[test]
    fn iterates_in_resolved_string_order() {
        // Intern in an order unrelated to string order so the test
        // would catch id-order iteration.
        let names = ["symmap-zed", "symmap-alpha", "symmap-mid", "symmap-beta"];
        let mut m = SymbolMap::new();
        let mut reference: BTreeMap<String, usize> = BTreeMap::new();
        for (i, n) in names.iter().enumerate() {
            m.insert(Symbol::intern(n), i);
            reference.insert((*n).to_string(), i);
        }
        let got: Vec<(String, usize)> =
            m.iter().map(|(k, &v)| (k.as_str().to_string(), v)).collect();
        let want: Vec<(String, usize)> =
            reference.iter().map(|(k, &v)| (k.clone(), v)).collect();
        assert_eq!(got, want);
        let keys: Vec<&str> = m.keys().map(|k| k.as_str()).collect();
        assert_eq!(keys, ["symmap-alpha", "symmap-beta", "symmap-mid", "symmap-zed"]);
        let vals: Vec<usize> = m.values().copied().collect();
        assert_eq!(vals, [1, 3, 2, 0]);
    }

    #[test]
    fn from_iterator_and_eq() {
        let a = Symbol::intern("symmap-fi-a");
        let b = Symbol::intern("symmap-fi-b");
        let m: SymbolMap<u32> = [(b, 2), (a, 1)].into_iter().collect();
        let n: SymbolMap<u32> = [(a, 1), (b, 2)].into_iter().collect();
        assert_eq!(m, n);
        assert_eq!(format!("{m:?}"), "{\"symmap-fi-a\": 1, \"symmap-fi-b\": 2}");
    }
}
