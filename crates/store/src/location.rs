//! Sites and data locality.
//!
//! A *site* is an administrative/network domain: in the paper's testbed,
//! Theta (login + KNL compute + shared Lustre), the Venti GPU server
//! (separate network, no shared file system with Theta), the cloud
//! provider hosting the FaaS and transfer services, and the UChicago RCC
//! cluster. Backends price operations by whether producer and consumer
//! share a site or a file system.

use std::fmt;

/// Identifier of a site. Values are indices into the platform topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SiteId(pub u16);

// By hand, as `SimTime`'s: a derived `PartialOrd` calls `partial_cmp` (R6).
impl Ord for SiteId {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for SiteId {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl SiteId {
    /// The raw index.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Debug for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site#{}", self.0)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site#{}", self.0)
    }
}

/// A small set of sites (bitset over site indices 0..64).
///
/// Used to express "these sites share a file system" and "this object is
/// resident at these sites".
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct SiteSet(u64);

impl SiteSet {
    /// The empty set.
    pub(crate) const EMPTY: SiteSet = SiteSet(0);

    /// Builds a set from site ids.
    pub fn of(sites: &[SiteId]) -> Self {
        let mut s = SiteSet::EMPTY;
        for &site in sites {
            s.insert(site);
        }
        s
    }

    /// Adds a site.
    pub(crate) fn insert(&mut self, site: SiteId) {
        assert!(site.0 < 64, "SiteSet supports at most 64 sites");
        self.0 |= 1 << site.0;
    }

    /// Membership test.
    pub fn contains(self, site: SiteId) -> bool {
        site.0 < 64 && self.0 & (1 << site.0) != 0
    }

    /// True when no site is in the set.
    #[cfg(test)]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of member sites.
    #[cfg(test)]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates over member sites in index order.
    pub(crate) fn iter(self) -> impl Iterator<Item = SiteId> {
        (0..64u16).filter(move |&i| self.0 & (1 << i) != 0).map(SiteId)
    }
}

impl fmt::Debug for SiteSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<SiteId> for SiteSet {
    fn from_iter<I: IntoIterator<Item = SiteId>>(iter: I) -> Self {
        let mut s = SiteSet::EMPTY;
        for site in iter {
            s.insert(site);
        }
        s
    }
}

/// Convenience byte-size constants (decimal, matching the paper's usage:
/// "10 kB", "1 MB", "100 MB").
pub mod bytes {
    /// One kilobyte (10³ bytes).
    pub const KB: u64 = 1_000;
    /// One megabyte (10⁶ bytes).
    pub const MB: u64 = 1_000_000;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_insert_contains() {
        let mut s = SiteSet::EMPTY;
        assert!(s.is_empty());
        s.insert(SiteId(3));
        s.insert(SiteId(10));
        assert!(s.contains(SiteId(3)));
        assert!(s.contains(SiteId(10)));
        assert!(!s.contains(SiteId(4)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn set_of_and_iter() {
        let s = SiteSet::of(&[SiteId(0), SiteId(2), SiteId(5)]);
        let v: Vec<u16> = s.iter().map(|s| s.0).collect();
        assert_eq!(v, vec![0, 2, 5]);
    }

    #[test]
    fn from_iterator() {
        let s: SiteSet = [SiteId(1), SiteId(1), SiteId(7)].into_iter().collect();
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn oversized_site_rejected() {
        let mut s = SiteSet::EMPTY;
        s.insert(SiteId(64));
    }

    #[test]
    fn byte_constants() {
        assert_eq!(bytes::KB * 1000, bytes::MB);
    }
}
