//! `key.id()` on a `key: Symbol` parameter is `Symbol::id` and nothing
//! else, however many other types in the workspace have an `id`.

pub struct Symbol(u32);

impl Symbol {
    pub fn id(self) -> u32 {
        self.0
    }
}

pub fn slot_of(key: Symbol) -> usize {
    key.id() as usize
}

/// No declared type to go by: every `id` stays a candidate.
pub fn slot_of_any(key: impl Keyed) -> usize {
    key.id() as usize
}

/// The `let` rebinds `key`; its declared type no longer applies.
pub fn slot_of_rebound(key: Symbol) -> usize {
    let key = lookup(key);
    key.id() as usize
}
