//! Interned names: topic, endpoint, actor, and RNG-stream strings as
//! cheap copyable keys.
//!
//! The hot paths of the simulator (trace emission, fabric dispatch,
//! per-result accounting) used to clone `String`s for every event. A
//! [`Symbol`] is a `Copy` handle to a string interned exactly once for
//! the life of the process: comparing symbols is an integer compare,
//! storing one allocates nothing, and resolving one back to `&str` is a
//! field read. The determinism contract is unaffected because every
//! digest and RNG-stream derivation folds the *resolved bytes*, never
//! the numeric id — interning order cannot leak into any observable.
//!
//! The interner is global and thread-safe (`Mutex` around a `BTreeMap`),
//! so symbols created on one thread compare correctly on another; the
//! lock is only taken when interning, never when resolving. Interned
//! strings are leaked — the name set is bounded (topics, endpoints,
//! worker labels), so the leak is a few kilobytes per process.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// A `Copy` handle to an interned string.
///
/// Equality and hashing use the numeric id (valid because the global
/// interner deduplicates), while `Ord` compares the *resolved strings*:
/// a `BTreeMap<Symbol, _>` therefore iterates in exactly the order the
/// equivalent `BTreeMap<String, _>` would, which keeps every
/// map-iteration-ordered code path bit-identical to the pre-interning
/// tree.
#[derive(Clone, Copy)]
pub struct Symbol {
    id: u32,
    name: &'static str,
}

struct Interner {
    map: BTreeMap<&'static str, Symbol>,
}

#[expect(clippy::disallowed_types, reason = "R11: no fn also holds the executor's overflow ring")]
fn interner() -> &'static std::sync::Mutex<Interner> {
    static INTERNER: OnceLock<std::sync::Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| std::sync::Mutex::new(Interner { map: BTreeMap::new() }))
}

impl Symbol {
    /// Interns `name`, returning the canonical symbol for it.
    ///
    /// The first interning of a distinct string leaks one copy of it;
    /// subsequent calls are a lock plus a map lookup and allocate
    /// nothing.
    pub fn intern(name: &str) -> Symbol {
        let mut guard = interner()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(sym) = guard.map.get(name) {
            return *sym;
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = u32::try_from(guard.map.len()).unwrap_or(u32::MAX);
        let sym = Symbol { id, name: leaked };
        guard.map.insert(leaked, sym);
        sym
    }

    /// The interned string.
    #[inline]
    pub fn as_str(self) -> &'static str {
        self.name
    }

    /// The numeric key — stable for the life of the process, dense from
    /// zero in interning order. Useful as an array index for per-name
    /// counters; never fold it into a digest or a seed (use
    /// [`Symbol::as_str`] bytes, which are independent of interning
    /// order).
    #[inline]
    pub(crate) fn id(self) -> u32 {
        self.id
    }
}

/// The empty string, interned.
impl Default for Symbol {
    fn default() -> Self {
        Symbol::intern("")
    }
}

impl PartialEq for Symbol {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for Symbol {}

impl std::hash::Hash for Symbol {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

// Ordered by resolved string, NOT by id — see the type-level docs.
impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.id == other.id {
            std::cmp::Ordering::Equal
        } else {
            self.name.cmp(other.name)
        }
    }
}
impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.name == other
    }
}
impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.name == *other
    }
}
impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.name == other.as_str()
    }
}
impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.name
    }
}
impl PartialEq<Symbol> for String {
    fn eq(&self, other: &Symbol) -> bool {
        self.as_str() == other.name
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}
impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}
impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}
impl From<&Symbol> for Symbol {
    fn from(s: &Symbol) -> Symbol {
        *s
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.name, f)
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_deduplicates() {
        let a = Symbol::intern("intern-test-alpha");
        let b = Symbol::intern("intern-test-alpha");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert!(std::ptr::eq(a.as_str(), b.as_str()), "one leaked copy");
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        let a = Symbol::intern("intern-test-a");
        let b = Symbol::intern("intern-test-b");
        assert_ne!(a, b);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn ord_matches_string_order() {
        // The property every BTreeMap<Symbol, _> iteration depends on.
        let mut names = vec!["zeta", "alpha", "mid/9", "mid/10", ""];
        let mut syms: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
        names.sort_unstable();
        syms.sort();
        let resolved: Vec<&str> = syms.iter().map(|s| s.as_str()).collect();
        assert_eq!(resolved, names);
    }

    #[test]
    fn compares_with_strings_both_ways() {
        let s = Symbol::intern("cpu/0");
        assert_eq!(s, "cpu/0");
        assert!("cpu/0" == s);
        assert_eq!(s, String::from("cpu/0"));
        assert!(s != "cpu/1");
    }

    #[test]
    fn display_and_debug_resolve() {
        let s = Symbol::intern("fnx/ep0");
        assert_eq!(format!("{s}"), "fnx/ep0");
        assert_eq!(format!("{s:?}"), "\"fnx/ep0\"");
    }

    #[test]
    fn default_is_empty() {
        assert!(Symbol::default().as_str().is_empty());
        assert_eq!(Symbol::default(), "");
    }

    #[test]
    fn from_string_variants() {
        let owned = String::from("intern-test-owned");
        let a: Symbol = (&owned).into();
        let b: Symbol = owned.into();
        let c: Symbol = "intern-test-owned".into();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn symbols_are_send_sync() {
        // The interner is global (Mutex + OnceLock), not thread-local, so
        // symbols may cross threads; this fails to compile if that
        // property regresses.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Symbol>();
    }
}
