//! Deployment topologies: the paper's four setups (Figure 4).
//!
//! §5.2.2 evaluates: (a) small edge, different locations; (b) small edge,
//! same location; (c) regular edge, different location; (d) regular edge,
//! same location. "Edge machines are implemented on either t3a.xlarge
//! instances (for the default setups) and t3a.small (for experiments with
//! limited resources). ... The default setup is of an edge machine in
//! California and a cloud machine in Virginia."

use croesus_sim::Normal;

use crate::link::Link;

/// Edge machine class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeClass {
    /// t3a.small: 2 vCPU, 2 GiB — "experiments with limited resources".
    Small,
    /// t3a.xlarge: 4 vCPU, 16 GiB — the default.
    Xlarge,
}

impl EdgeClass {
    /// Inference slowdown factor relative to the default machine. The paper
    /// does not publish per-machine inference numbers; a t3a.small has half
    /// the vCPUs and an eighth of the memory of a t3a.xlarge, and CPU
    /// inference scales close to linearly with cores for batch-1 YOLO, so
    /// we use 2.2× (slightly above 2 for memory pressure).
    pub fn hardware_factor(&self) -> f64 {
        match self {
            EdgeClass::Small => 2.2,
            EdgeClass::Xlarge => 1.0,
        }
    }
}

/// Where the cloud machine sits relative to the edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Colocation {
    /// Edge in California, cloud in Virginia (the default).
    CrossCountry,
    /// Both machines in the same location.
    SameLocation,
}

/// One of the four Figure-4 deployment setups.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Setup {
    /// Edge machine class.
    pub edge: EdgeClass,
    /// Edge↔cloud placement.
    pub colocation: Colocation,
}

impl Setup {
    /// The four setups in the paper's order: (a) small/different, (b)
    /// small/same, (c) regular/different, (d) regular/same.
    pub const ALL: [Setup; 4] = [
        Setup {
            edge: EdgeClass::Small,
            colocation: Colocation::CrossCountry,
        },
        Setup {
            edge: EdgeClass::Small,
            colocation: Colocation::SameLocation,
        },
        Setup {
            edge: EdgeClass::Xlarge,
            colocation: Colocation::CrossCountry,
        },
        Setup {
            edge: EdgeClass::Xlarge,
            colocation: Colocation::SameLocation,
        },
    ];

    /// The default setup: regular edge, cross-country.
    pub fn default_paper() -> Setup {
        Setup {
            edge: EdgeClass::Xlarge,
            colocation: Colocation::CrossCountry,
        }
    }

    /// The paper's label for this setup.
    pub fn label(&self) -> String {
        format!(
            "{} edge, {}",
            match self.edge {
                EdgeClass::Small => "small",
                EdgeClass::Xlarge => "regular",
            },
            match self.colocation {
                Colocation::CrossCountry => "different locations",
                Colocation::SameLocation => "same location",
            }
        )
    }

    /// Build the topology for this setup.
    pub fn topology(&self) -> Topology {
        Topology::for_setup(*self)
    }
}

/// The links of one deployment.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Client (headset) to the nearby edge node.
    pub client_edge: Link,
    /// Edge node to the cloud node.
    pub edge_cloud: Link,
    /// The setup this topology was built for.
    pub setup: Setup,
}

impl Topology {
    /// Build the topology for a setup.
    ///
    /// Calibration: the client is near its edge node (~8 ms, the "edge
    /// latency" share of the ~210 ms initial commit in Table 1);
    /// CA↔Virginia one-way is ~62 ms on AWS's backbone; co-located
    /// machines see ~1 ms. Cross-country transfers are billed at the
    /// standard $0.09/GB egress rate, intra-location at $0.01/GB.
    pub(crate) fn for_setup(setup: Setup) -> Topology {
        let client_edge = Link::new("client→edge", Normal::new(8.0, 1.5), 400e6, 0.0);
        let edge_cloud = match setup.colocation {
            Colocation::CrossCountry => {
                // 50 Mbps sustained cross-country throughput: a 150 KB frame
                // serializes in ~24 ms, so compression genuinely helps
                // (Fig 6c) while propagation still dominates.
                Link::new("edge→cloud (CA→VA)", Normal::new(62.0, 4.0), 50e6, 0.09)
            }
            Colocation::SameLocation => {
                Link::new("edge→cloud (local)", Normal::new(1.0, 0.2), 1e9, 0.01)
            }
        };
        Topology {
            client_edge,
            edge_cloud,
            setup,
        }
    }

    /// The default (paper) topology.
    pub fn default_paper() -> Topology {
        Topology::for_setup(Setup::default_paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_setups_with_distinct_labels() {
        let labels: std::collections::HashSet<String> =
            Setup::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn cross_country_is_much_slower_than_local() {
        let far = Setup {
            edge: EdgeClass::Xlarge,
            colocation: Colocation::CrossCountry,
        }
        .topology();
        let near = Setup {
            edge: EdgeClass::Xlarge,
            colocation: Colocation::SameLocation,
        }
        .topology();
        let far_ms = far.edge_cloud.mean_latency(150_000).as_millis_f64();
        let near_ms = near.edge_cloud.mean_latency(150_000).as_millis_f64();
        assert!(far_ms > near_ms * 10.0, "far {far_ms} near {near_ms}");
    }

    #[test]
    fn small_edge_is_slower_hardware() {
        assert!(EdgeClass::Small.hardware_factor() > EdgeClass::Xlarge.hardware_factor());
        assert_eq!(EdgeClass::Xlarge.hardware_factor(), 1.0);
    }

    #[test]
    fn cross_country_costs_more() {
        let far = Topology::default_paper();
        let near = Setup {
            edge: EdgeClass::Xlarge,
            colocation: Colocation::SameLocation,
        }
        .topology();
        assert!(far.edge_cloud.cost_per_gb > near.edge_cloud.cost_per_gb);
    }

    #[test]
    fn default_is_regular_cross_country() {
        let d = Setup::default_paper();
        assert_eq!(d.edge, EdgeClass::Xlarge);
        assert_eq!(d.colocation, Colocation::CrossCountry);
    }

    #[test]
    fn client_edge_link_is_fast_and_free() {
        let t = Topology::default_paper();
        assert!(t.client_edge.mean_latency(150_000).as_millis_f64() < 15.0);
        assert_eq!(t.client_edge.cost_per_gb, 0.0);
    }
}
