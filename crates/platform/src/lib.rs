//! Homogeneous cluster platform model (CLUSTER 2008 paper, section II-B).
//!
//! A cluster comprises `P` identical compute nodes, each delivering a fixed
//! processing speed in GFlop/s and owning a *private network link*
//! (latency `λ`, bandwidth `β`) to the interconnect. Communications follow
//! the **bounded multi-port** model: a node may exchange data with several
//! peers at once, but all its flows share the private link's bandwidth.
//!
//! Four interconnect layouts are modelled — the paper's two plus the star
//! and bus platforms of the redistribution-strategy literature
//! (arXiv:cs/0610131), which the workload-synthesis subsystem emits:
//!
//! * **flat** — every node hangs off one big switch (small clusters, ≤64
//!   nodes); a flow crosses the sender's and the receiver's private links;
//! * **hierarchical** — nodes are grouped in cabinets, each cabinet has its
//!   own switch connected to a top-level switch (the paper's `grelon`,
//!   5 cabinets × 24 nodes); inter-cabinet flows additionally cross the two
//!   cabinet uplinks;
//! * **star** — hub-and-spoke: every remote flow crosses the sender's
//!   spoke, the shared central hub and the receiver's spoke, so the hub's
//!   capacity bounds the cluster's aggregate redistribution rate;
//! * **bus** — one shared medium crossed by every remote flow and nothing
//!   else: all transfers in flight contend for the same capacity.
//!
//! To mimic gigabit TCP behaviour, the per-flow rate is capped by the
//! *empirical bandwidth* `β' = min(β, Wmax / RTT)` where `Wmax` is the
//! maximal TCP window and `RTT` twice the path latency — exactly the SimGrid
//! v3.3 rule the paper describes.
//!
//! The crate also defines [`ProcSet`], an *ordered* list of processors: the
//! rank order is what a 1-D block distribution maps data blocks onto, so it
//! is semantically meaningful and preserved by all operations.

#![forbid(unsafe_code)]

mod memo;
mod procset;
mod route;
mod spec;

pub use memo::SetMemo;
pub use procset::ProcSet;
pub use route::{LinkId, Route};
pub use spec::{ClusterSpec, LinkSpec, TopologySpec};

use route::MAX_ROUTE_LINKS;

/// One network resource (a node's private link or a cabinet uplink).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One-way latency in seconds.
    pub latency_s: f64,
    /// Capacity in bytes per second, shared by all flows crossing the link.
    pub bandwidth_bps: f64,
}

/// A concrete platform instantiated from a [`ClusterSpec`]: processors,
/// links and routing.
#[derive(Debug, Clone)]
pub struct Platform {
    name: String,
    num_procs: u32,
    gflops: f64,
    wmax_bytes: f64,
    links: Vec<Link>,
    /// Cabinet index per processor (`None` for flat topologies).
    cabinet_of: Option<Vec<u32>>,
    /// Link id of each cabinet's uplink (empty for flat topologies).
    uplink_of_cabinet: Vec<LinkId>,
    /// The central hub link of a star topology.
    hub: Option<LinkId>,
    /// The shared medium of a bus topology (remote routes cross only it).
    bus: Option<LinkId>,
}

impl Platform {
    /// Builds the platform for a cluster description.
    ///
    /// Link ids `0..P` are the nodes' private links; any cabinet uplinks
    /// follow.
    pub fn from_spec(spec: &ClusterSpec) -> Self {
        spec.validate();
        let p = spec.num_procs;
        let mut links: Vec<Link> = (0..p)
            .map(|_| Link {
                latency_s: spec.node_link.latency_s,
                bandwidth_bps: spec.node_link.bandwidth_bps,
            })
            .collect();
        let mut cabinet_of = None;
        let mut uplink_of_cabinet = Vec::new();
        let mut hub = None;
        let mut bus = None;
        let push_link = |links: &mut Vec<Link>, l: &crate::spec::LinkSpec| {
            let id = LinkId::from_index(links.len());
            links.push(Link {
                latency_s: l.latency_s,
                bandwidth_bps: l.bandwidth_bps,
            });
            id
        };
        match &spec.topology {
            TopologySpec::Flat => {}
            TopologySpec::Hierarchical {
                cabinets,
                nodes_per_cabinet,
                uplink,
            } => {
                cabinet_of = Some(
                    (0..p)
                        .map(|i| (i / nodes_per_cabinet).min(cabinets - 1))
                        .collect::<Vec<u32>>(),
                );
                uplink_of_cabinet = (0..*cabinets)
                    .map(|_| push_link(&mut links, uplink))
                    .collect();
            }
            TopologySpec::Star { hub: h } => hub = Some(push_link(&mut links, h)),
            TopologySpec::Bus { bus: b } => bus = Some(push_link(&mut links, b)),
        }
        Self {
            name: spec.name.clone(),
            num_procs: p,
            gflops: spec.gflops,
            wmax_bytes: spec.wmax_bytes,
            links,
            cabinet_of,
            uplink_of_cabinet,
            hub,
            bus,
        }
    }

    /// Cluster name (e.g. `"grillon"`).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processors `P`.
    #[inline]
    pub fn num_procs(&self) -> u32 {
        self.num_procs
    }

    /// Per-processor speed in GFlop/s.
    #[inline]
    pub fn gflops(&self) -> f64 {
        self.gflops
    }

    /// Maximal TCP window size (bytes) used for the empirical bandwidth.
    #[inline]
    pub fn wmax_bytes(&self) -> f64 {
        self.wmax_bytes
    }

    /// Number of network links (node links + cabinet uplinks).
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The link with the given id.
    #[inline]
    pub fn link(&self, id: LinkId) -> Link {
        self.links[id.index()]
    }

    /// The private link of processor `p`.
    #[inline]
    pub fn node_link(&self, p: u32) -> LinkId {
        debug_assert!(p < self.num_procs);
        LinkId::from_index(p as usize)
    }

    /// The cabinet index of processor `p` (0 for flat topologies).
    #[inline]
    pub fn cabinet_of(&self, p: u32) -> u32 {
        match &self.cabinet_of {
            Some(c) => c[p as usize],
            None => 0,
        }
    }

    /// `true` if the interconnect has cabinet uplinks.
    #[inline]
    pub fn is_hierarchical(&self) -> bool {
        self.cabinet_of.is_some()
    }

    /// The central hub link of a star topology, if any.
    #[inline]
    pub fn hub_link(&self) -> Option<LinkId> {
        self.hub
    }

    /// The shared medium of a bus topology, if any.
    #[inline]
    pub fn bus_link(&self) -> Option<LinkId> {
        self.bus
    }

    /// The route from `src` to `dst`: the ordered links a flow crosses plus
    /// the accumulated one-way latency. Self-routes (`src == dst`) cross no
    /// link and have zero latency (intra-node copies are free, matching the
    /// paper's "redistribution cost … is zero when … executed on the same
    /// set of processors").
    pub fn route(&self, src: u32, dst: u32) -> Route {
        debug_assert!(src < self.num_procs && dst < self.num_procs);
        let mut links = [LinkId::from_index(0); MAX_ROUTE_LINKS];
        let mut len = 0usize;
        let mut latency = 0.0;
        if src == dst {
            return Route::new(links, 0, 0.0);
        }
        let mut push = |id: LinkId, links: &mut [LinkId; MAX_ROUTE_LINKS], latency: &mut f64| {
            links[len] = id;
            *latency += self.links[id.index()].latency_s;
            len += 1;
        };
        // Bus topologies route every remote flow over the one shared
        // medium — node spokes do not exist as separate resources.
        if let Some(bus) = self.bus {
            push(bus, &mut links, &mut latency);
            return Route::new(links, len, latency);
        }
        push(self.node_link(src), &mut links, &mut latency);
        if let Some(hub) = self.hub {
            push(hub, &mut links, &mut latency);
        }
        if let Some(cab) = &self.cabinet_of {
            let (cs, cd) = (cab[src as usize], cab[dst as usize]);
            if cs != cd {
                push(
                    self.uplink_of_cabinet[cs as usize],
                    &mut links,
                    &mut latency,
                );
                push(
                    self.uplink_of_cabinet[cd as usize],
                    &mut links,
                    &mut latency,
                );
            }
        }
        push(self.node_link(dst), &mut links, &mut latency);
        Route::new(links, len, latency)
    }

    /// Round-trip time between two processors: twice the one-way latency
    /// (the SimGrid rule for multi-hop connections).
    #[inline]
    pub fn rtt(&self, src: u32, dst: u32) -> f64 {
        2.0 * self.route(src, dst).latency_s
    }

    /// Per-flow rate cap from the empirical bandwidth rule
    /// `β' = min(β, Wmax/RTT)`: returns `Wmax/RTT` (infinite for
    /// self-routes), to be combined with link capacities by the caller.
    #[inline]
    pub fn flow_rate_cap(&self, src: u32, dst: u32) -> f64 {
        let rtt = self.rtt(src, dst);
        if rtt == 0.0 {
            f64::INFINITY
        } else {
            self.wmax_bytes / rtt
        }
    }

    /// Steady-state rate of a single, uncontended flow from `src` to `dst`:
    /// `min(min link bandwidth on path, Wmax/RTT)`. Used by the schedulers'
    /// contention-free redistribution estimator.
    pub fn effective_bandwidth(&self, src: u32, dst: u32) -> f64 {
        if src == dst {
            return f64::INFINITY;
        }
        let route = self.route(src, dst);
        let min_bw = route
            .links()
            .iter()
            .map(|&l| self.links[l.index()].bandwidth_bps)
            .fold(f64::INFINITY, f64::min);
        min_bw.min(self.flow_rate_cap(src, dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_table2() {
        let chti = Platform::from_spec(&ClusterSpec::chti());
        assert_eq!(chti.num_procs(), 20);
        assert!((chti.gflops() - 4.311).abs() < 1e-12);
        assert!(!chti.is_hierarchical());

        let grillon = Platform::from_spec(&ClusterSpec::grillon());
        assert_eq!(grillon.num_procs(), 47);
        assert!((grillon.gflops() - 3.379).abs() < 1e-12);

        let grelon = Platform::from_spec(&ClusterSpec::grelon());
        assert_eq!(grelon.num_procs(), 120);
        assert!((grelon.gflops() - 3.185).abs() < 1e-12);
        assert!(grelon.is_hierarchical());
        assert_eq!(grelon.num_links(), 120 + 5);
    }

    #[test]
    fn flat_route_crosses_two_links() {
        let p = Platform::from_spec(&ClusterSpec::grillon());
        let r = p.route(0, 5);
        assert_eq!(r.links().len(), 2);
        assert!((r.latency_s - 2e-4).abs() < 1e-15);
        assert!((p.rtt(0, 5) - 4e-4).abs() < 1e-15);
    }

    #[test]
    fn self_route_is_free() {
        let p = Platform::from_spec(&ClusterSpec::chti());
        let r = p.route(3, 3);
        assert!(r.links().is_empty());
        assert_eq!(r.latency_s, 0.0);
        assert_eq!(p.effective_bandwidth(3, 3), f64::INFINITY);
    }

    #[test]
    fn hierarchical_routes() {
        let p = Platform::from_spec(&ClusterSpec::grelon());
        // 0 and 1 are in cabinet 0; 24 is in cabinet 1.
        assert_eq!(p.cabinet_of(0), 0);
        assert_eq!(p.cabinet_of(23), 0);
        assert_eq!(p.cabinet_of(24), 1);
        assert_eq!(p.cabinet_of(119), 4);
        assert_eq!(p.route(0, 1).links().len(), 2);
        assert_eq!(p.route(0, 24).links().len(), 4);
        assert!(p.route(0, 24).latency_s > p.route(0, 1).latency_s);
    }

    #[test]
    fn empirical_bandwidth_throttles_inter_cabinet_flows() {
        let p = Platform::from_spec(&ClusterSpec::grelon());
        let intra = p.effective_bandwidth(0, 1);
        let inter = p.effective_bandwidth(0, 24);
        // Intra-cabinet: RTT = 0.4 ms → Wmax/RTT = 163.84 MB/s > 125 MB/s.
        assert!((intra - 125e6).abs() < 1.0, "intra = {intra}");
        // Inter-cabinet: RTT = 0.8 ms → Wmax/RTT = 81.92 MB/s < 125 MB/s.
        assert!((inter - 81.92e6).abs() < 1.0, "inter = {inter}");
        assert!(inter < intra);
    }

    #[test]
    fn route_is_symmetric_in_length() {
        let p = Platform::from_spec(&ClusterSpec::grelon());
        for (a, b) in [(0u32, 1u32), (0, 24), (5, 119), (30, 31)] {
            assert_eq!(p.route(a, b).links().len(), p.route(b, a).links().len());
            assert!((p.route(a, b).latency_s - p.route(b, a).latency_s).abs() < 1e-15);
        }
    }

    #[test]
    fn star_routes_cross_spokes_and_hub() {
        let hub = LinkSpec {
            latency_s: 50e-6,
            bandwidth_bps: 250e6,
        };
        let p = Platform::from_spec(&ClusterSpec::star("orion", 8, 2.0, hub));
        assert_eq!(p.num_links(), 8 + 1);
        let hub_id = p.hub_link().unwrap();
        assert_eq!(hub_id.index(), 8);
        let r = p.route(1, 5);
        assert_eq!(r.links(), &[p.node_link(1), hub_id, p.node_link(5)]);
        assert!((r.latency_s - (100e-6 + 50e-6 + 100e-6)).abs() < 1e-15);
        assert!(p.route(3, 3).is_local());
        // Every remote flow crosses the hub, so its bandwidth is a shared
        // ceiling even when the spokes are faster.
        let narrow_hub = LinkSpec {
            latency_s: 0.0,
            bandwidth_bps: 10e6,
        };
        let q = Platform::from_spec(&ClusterSpec::star("narrow", 4, 2.0, narrow_hub));
        assert!((q.effective_bandwidth(0, 1) - 10e6).abs() < 1.0);
    }

    #[test]
    fn bus_routes_cross_only_the_medium() {
        let bus = LinkSpec {
            latency_s: 20e-6,
            bandwidth_bps: 12.5e6,
        };
        let p = Platform::from_spec(&ClusterSpec::bus("ether", 6, 1.5, bus));
        let bus_id = p.bus_link().unwrap();
        let r = p.route(0, 5);
        assert_eq!(r.links(), &[bus_id]);
        assert!((r.latency_s - 20e-6).abs() < 1e-18);
        assert!(p.route(2, 2).is_local());
        assert!((p.effective_bandwidth(0, 5) - 12.5e6).abs() < 1.0);
        // Symmetric: both directions use the same single link.
        assert_eq!(p.route(5, 0).links(), r.links());
    }

    #[test]
    fn gigabit_is_125_mbytes() {
        let s = LinkSpec::gigabit();
        assert!((s.bandwidth_bps - 125e6).abs() < 1e-6);
        assert!((s.latency_s - 100e-6).abs() < 1e-15);
    }
}
