//! # hawkeye-workloads
//!
//! Workload and anomaly-scenario generation for the Hawkeye evaluation
//! (§4.1 of the paper): the empirical long-tailed RoCEv2 flow-size
//! distribution, Poisson background traffic at a configurable link load,
//! the Clos-family fabrics a scenario can run on ([`TopologySpec`]), and
//! builders for the six anomaly scenarios (with ground truth) that drive
//! every accuracy experiment. A scenario scripts its traffic over the roles
//! the fabric builder placed (`hawkeye_sim::FatTreeNav`, kept on the
//! scenario as `nav`).

pub mod background;
pub mod flowsize;
pub mod scenario;
pub mod topospec;

pub use background::{generate as generate_background, BackgroundConfig};
pub use flowsize::FlowSizeDist;
pub use scenario::{
    build as build_scenario, build_on as build_scenario_on, GroundTruth, Scenario,
    ScenarioBuildError, ScenarioKind, ScenarioParams,
};
pub use topospec::TopologySpec;
