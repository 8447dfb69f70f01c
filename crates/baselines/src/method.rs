//! The diagnosis methods compared in §4.2–§4.3.

use serde::{Deserialize, Serialize};

/// Every method evaluated in Figures 8–11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// The full system: victim-path + PFC-causality tracing, causal-switch
    /// collection, PFC-aware provenance diagnosis.
    Hawkeye,
    /// Hawkeye telemetry, but polling packets never escalate onto PFC
    /// spreading paths: only victim-path switches are collected.
    VictimOnly,
    /// Hawkeye telemetry collected from every switch in the network on
    /// each trigger (no in-network causality analysis needed).
    FullPolling,
    /// SpiderMon (NSDI'22): queuing-delay monitoring and flow-interaction
    /// analysis on the victim path; no PFC visibility.
    SpiderMon,
    /// NetSight (NSDI'14): per-packet postcards from every switch; full
    /// history, no PFC semantics.
    NetSight,
    /// Telemetry-granularity ablation: port-level counters and causality
    /// meters only (PFC paths traceable, no flow attribution).
    PortOnly,
    /// Telemetry-granularity ablation: flow tables only (contention
    /// analyzable, PFC spreading untraceable).
    FlowOnly,
}

impl Method {
    pub const ALL: [Method; 7] = [
        Method::Hawkeye,
        Method::VictimOnly,
        Method::FullPolling,
        Method::SpiderMon,
        Method::NetSight,
        Method::PortOnly,
        Method::FlowOnly,
    ];

    /// The five methods of the Fig. 8 accuracy comparison (and Figs. 9 and 11).
    pub const FIG8: [Method; 5] = [
        Method::Hawkeye,
        Method::FullPolling,
        Method::VictimOnly,
        Method::SpiderMon,
        Method::NetSight,
    ];

    /// The three telemetry granularities of Fig. 10.
    pub const FIG10: [Method; 3] = [Method::Hawkeye, Method::PortOnly, Method::FlowOnly];

    pub fn name(self) -> &'static str {
        match self {
            Method::Hawkeye => "hawkeye",
            Method::VictimOnly => "victim-only",
            Method::FullPolling => "full-polling",
            Method::SpiderMon => "spidermon",
            Method::NetSight => "netsight",
            Method::PortOnly => "port-only",
            Method::FlowOnly => "flow-only",
        }
    }

    /// Does this method's collection cover the whole network per trigger?
    pub fn collects_everything(self) -> bool {
        matches!(self, Method::FullPolling | Method::NetSight)
    }

    /// Is collection restricted to the victim's own path?
    pub fn victim_path_only(self) -> bool {
        matches!(self, Method::VictimOnly | Method::SpiderMon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visibility_matrix() {
        assert!(Method::FullPolling.collects_everything());
        assert!(Method::NetSight.collects_everything());
        assert!(!Method::Hawkeye.collects_everything());
        assert!(Method::SpiderMon.victim_path_only());
        assert!(Method::VictimOnly.victim_path_only());
        assert!(!Method::FullPolling.victim_path_only());
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = Method::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Method::ALL.len());
    }
}
