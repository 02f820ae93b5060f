//! The experimental platform topology (§V-A of the paper).
//!
//! Three sites matter:
//!
//! * **Theta** — the ALCF supercomputer: login node (hosting the Thinker
//!   and Task Server) and KNL compute nodes, all sharing a Lustre file
//!   system. One site here, since data written by any Theta process is
//!   visible to the others.
//! * **Venti** — the NVIDIA server with 20 T4 GPUs. "Representative of
//!   off-site resources": separate network, no Theta file system, its
//!   own authentication.
//! * **RCC** — a University of Chicago Research Computing Center login
//!   node, used as the remote thinker host in the Globus backend
//!   microbenchmark (Fig. 4).
//!
//! The cloud provider hosting the FaaS and transfer services is not a
//! site — it has no workers and holds data only transiently — so it is
//! modelled inside the fabric/transfer cost models instead.

use hetflow_store::SiteId;

/// Theta: login + KNL compute + shared Lustre.
pub const THETA: SiteId = SiteId(0);

/// Venti: the 20×T4 GPU server on a separate network.
pub const VENTI: SiteId = SiteId(1);

/// UChicago RCC login node (Fig. 4's inter-site thinker host).
pub const RCC: SiteId = SiteId(2);

/// Human-readable site name.
pub(crate) fn site_name(site: SiteId) -> &'static str {
    match site {
        THETA => "theta",
        VENTI => "venti",
        RCC => "rcc",
        _ => "unknown",
    }
}

/// The task topics used across both applications plus the synthetic
/// no-op workload. Routing: CPU topics run on Theta KNL workers, GPU
/// topics on Venti.
pub(crate) const CPU_TOPICS: &[&str] = &["simulate", "sample", "noop"];

/// Topics routed to the GPU pool.
pub(crate) const GPU_TOPICS: &[&str] = &["train", "infer"];

/// All topics, CPU first.
pub(crate) fn all_topics() -> Vec<&'static str> {
    CPU_TOPICS.iter().chain(GPU_TOPICS).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sites_are_distinct() {
        assert_ne!(THETA, VENTI);
        assert_ne!(THETA, RCC);
        assert_ne!(VENTI, RCC);
    }

    #[test]
    fn names_resolve() {
        assert_eq!(site_name(THETA), "theta");
        assert_eq!(site_name(VENTI), "venti");
        assert_eq!(site_name(RCC), "rcc");
        assert_eq!(site_name(SiteId(9)), "unknown");
    }

    #[test]
    fn topics_cover_both_pools() {
        let all = all_topics();
        assert_eq!(all.len(), 5);
        assert!(all.contains(&"simulate") && all.contains(&"infer"));
    }
}
