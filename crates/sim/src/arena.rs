//! Generation-checked slot arena for per-task payloads.
//!
//! The executor already slab-allocates its *tasks*; this module gives
//! the rest of the stack the same treatment for the objects that ride
//! along with tasks — store entries, waker slots, anything inserted and
//! removed once per task. An [`Arena`] recycles slots through a free
//! list, so steady-state insert/remove allocates nothing, and every
//! handle carries a generation so a stale [`ArenaId`] held across a
//! remove can never alias the slot's next tenant: it just misses.
//!
//! Handles pack to a `u64` ([`ArenaId::to_bits`]) so existing APIs that
//! exposed sequential `u64` keys (the store's object keys) can switch
//! to arena handles without changing their signatures.

use std::fmt;

/// Handle to a value in an [`Arena`]: slot index plus the generation
/// the slot had when the value was inserted.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArenaId {
    index: u32,
    generation: u32,
}

impl ArenaId {
    /// Packs the handle into a `u64` (index in the low half).
    #[inline]
    pub fn to_bits(self) -> u64 {
        (u64::from(self.generation) << 32) | u64::from(self.index)
    }

    /// Rebuilds a handle from [`ArenaId::to_bits`] output. Any `u64`
    /// round-trips structurally; whether it *resolves* is up to the
    /// arena's generation check.
    #[inline]
    pub fn from_bits(bits: u64) -> ArenaId {
        ArenaId { index: bits as u32, generation: (bits >> 32) as u32 }
    }

    /// The slot index (diagnostic; dense from zero).
    #[inline]
    pub fn index(self) -> u32 {
        self.index
    }
}

impl fmt::Debug for ArenaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ArenaId({}v{})", self.index, self.generation)
    }
}

struct Slot<T> {
    /// Bumped on every remove; odd/even does not matter, only equality.
    generation: u32,
    value: Option<T>,
}

/// A slot arena with generation-checked handles and free-list reuse.
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena { slots: Vec::new(), free: Vec::new(), len: 0 }
    }
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value`, reusing a freed slot when one exists.
    pub fn insert(&mut self, value: T) -> ArenaId {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            slot.value = Some(value);
            return ArenaId { index, generation: slot.generation };
        }
        // hetlint: allow(r5) — 2^32 live slots exceeds any simulated campaign by orders of magnitude
        let index = u32::try_from(self.slots.len()).expect("arena capped at u32 slots");
        self.slots.push(Slot { generation: 0, value: Some(value) });
        ArenaId { index, generation: 0 }
    }

    /// The value behind `id`, unless `id` is stale or was never issued.
    #[inline]
    pub fn get(&self, id: ArenaId) -> Option<&T> {
        let slot = self.slots.get(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.value.as_ref()
    }

    /// Mutable access behind `id`, with the same staleness check.
    #[inline]
    pub fn get_mut(&mut self, id: ArenaId) -> Option<&mut T> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        slot.value.as_mut()
    }

    /// True when `id` still resolves.
    pub fn contains(&self, id: ArenaId) -> bool {
        self.get(id).is_some()
    }

    /// Removes the value behind `id`; the slot's generation advances so
    /// the handle (and any copy of it) goes permanently stale.
    pub fn remove(&mut self, id: ArenaId) -> Option<T> {
        let slot = self.slots.get_mut(id.index as usize)?;
        if slot.generation != id.generation {
            return None;
        }
        let value = slot.value.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(id.index);
        self.len -= 1;
        Some(value)
    }

    /// Live `(id, value)` pairs in slot-index order (insertion slots,
    /// not insertion time — deterministic for a deterministic caller).
    pub fn iter(&self) -> impl Iterator<Item = (ArenaId, &T)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            let v = s.value.as_ref()?;
            Some((ArenaId { index: i as u32, generation: s.generation }, v))
        })
    }
}

impl<T: fmt::Debug> fmt::Debug for Arena<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = Arena::new();
        let x = a.insert("x");
        let y = a.insert("y");
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(x), Some(&"x"));
        assert_eq!(a.get(y), Some(&"y"));
        assert_eq!(a.remove(x), Some("x"));
        assert_eq!(a.remove(x), None, "double remove misses");
        assert_eq!(a.len(), 1);
        assert!(!a.contains(x));
        assert!(a.contains(y));
    }

    #[test]
    fn stale_handle_never_aliases_reused_slot() {
        let mut a = Arena::new();
        let first = a.insert(1u32);
        a.remove(first);
        let second = a.insert(2u32);
        // Slot was reused...
        assert_eq!(second.index(), first.index());
        // ...but the old handle misses instead of reading the new tenant.
        assert_eq!(a.get(first), None);
        assert_eq!(a.get_mut(first), None);
        assert_eq!(a.remove(first), None);
        assert_eq!(a.get(second), Some(&2));
    }

    #[test]
    fn free_list_reuses_before_growing() {
        let mut a = Arena::new();
        let ids: Vec<ArenaId> = (0..4).map(|i| a.insert(i)).collect();
        for id in &ids {
            a.remove(*id);
        }
        assert!(a.is_empty());
        for i in 0..4 {
            let id = a.insert(i + 10);
            assert!(id.index() < 4, "reused a freed slot, got {id:?}");
        }
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn bits_roundtrip() {
        let mut a = Arena::new();
        a.insert(0u8);
        let id = a.insert(7u8);
        a.remove(id);
        let id2 = a.insert(8u8);
        let bits = id2.to_bits();
        assert_eq!(ArenaId::from_bits(bits), id2);
        assert_eq!(a.get(ArenaId::from_bits(bits)), Some(&8));
        // The stale handle's bits differ (generation advanced).
        assert_ne!(id.to_bits(), bits);
        assert_eq!(a.get(ArenaId::from_bits(id.to_bits())), None);
    }

    #[test]
    fn iter_walks_live_slots_in_index_order() {
        let mut a = Arena::new();
        let x = a.insert("x");
        let _y = a.insert("y");
        let _z = a.insert("z");
        a.remove(x);
        let vals: Vec<&str> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, ["y", "z"]);
    }
}
