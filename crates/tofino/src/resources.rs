//! Tofino hardware resource model (Fig. 13).
//!
//! Fig. 13a reports the prototype's ASIC resource usage; Fig. 13b shows how
//! telemetry memory scales with the epoch count and per-epoch flow
//! capacity. Both are arithmetic over the register layout of
//! `hawkeye-telemetry` plus the published characteristics of Tofino 1
//! (12 stages/pipe, 120 SRAM blocks of 16 KB per stage, 48 TCAM blocks per
//! stage, ~768 B PHV per packet); the constants are documented here so the
//! model is auditable.

use hawkeye_telemetry::{EpochConfig, TelemetryConfig};
use serde::{Deserialize, Serialize};

/// Tofino 1 per-pipeline budgets.
pub const STAGES: usize = 12;
pub const SRAM_BLOCKS_PER_STAGE: usize = 120;
pub const SRAM_BLOCK_BYTES: usize = 16 * 1024;
pub const TCAM_BLOCKS_PER_STAGE: usize = 48;
pub const PHV_BYTES: usize = 768;
pub const SALU_PER_STAGE: usize = 4;

/// Bytes per flow-table slot in switch SRAM: 13 B 5-tuple key + packet
/// count (4) + paused count (4) + queue-depth accumulator (4) + out port
/// (1), padded to the 32-bit register lanes Tofino exposes.
pub const FLOW_SLOT_BYTES: usize = 28;
/// Port-level telemetry per port per epoch: packets, paused, qdepth (3 x
/// 32-bit registers).
pub const PORT_SLOT_BYTES: usize = 12;
/// Causality meter cell: one 32-bit byte counter per (ingress, egress).
pub const METER_CELL_BYTES: usize = 4;
/// PFC status register per port: pause deadline (48-bit ts) + flags.
pub const STATUS_BYTES: usize = 8;

/// The switch dimensions the memory model is evaluated at.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SwitchDims {
    pub ports: usize,
}

impl Default for SwitchDims {
    fn default() -> Self {
        SwitchDims { ports: 64 }
    }
}

/// Memory usage breakdown (bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryUsage {
    pub flow_telemetry: usize,
    pub port_telemetry: usize,
    pub causality_meter: usize,
    pub pfc_status: usize,
}

impl MemoryUsage {
    pub fn total(&self) -> usize {
        self.flow_telemetry + self.port_telemetry + self.causality_meter + self.pfc_status
    }

    /// Constant-size portion (bounded by the port count — §4.5 "the memory
    /// usage of PFC causality structure and port-level telemetry is small
    /// and constant").
    pub fn constant_part(&self) -> usize {
        self.port_telemetry + self.causality_meter + self.pfc_status
    }
}

/// Memory required by a telemetry configuration on a switch with `dims`.
pub fn memory_usage(cfg: &TelemetryConfig, dims: SwitchDims) -> MemoryUsage {
    let epochs = cfg.epochs.epoch_count();
    MemoryUsage {
        flow_telemetry: epochs * cfg.max_flows * FLOW_SLOT_BYTES,
        port_telemetry: epochs * dims.ports * PORT_SLOT_BYTES,
        causality_meter: epochs * dims.ports * dims.ports * METER_CELL_BYTES,
        pfc_status: dims.ports * STATUS_BYTES,
    }
}

/// Percent-of-ASIC usage summary (Fig. 13a).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ResourceUsage {
    pub sram_pct: f64,
    pub tcam_pct: f64,
    pub phv_pct: f64,
    pub stages_used: usize,
    pub salu_pct: f64,
}

/// Model the prototype's ASIC usage for a telemetry configuration.
///
/// SRAM is the memory model above; the remaining numbers reflect the P4
/// program structure: the polling-forwarding logic and per-packet telemetry
/// updates occupy ~6 of 12 stages; the polling header, 5-tuple, epoch
/// index, and mirror metadata add ~56 bytes of PHV; match tables for flag
/// dispatch and port mapping take a few TCAM blocks; each register update
/// (flow x4, port x3, meter, status) consumes a stateful ALU.
pub fn resource_usage(cfg: &TelemetryConfig, dims: SwitchDims) -> ResourceUsage {
    let mem = memory_usage(cfg, dims);
    let sram_budget = STAGES * SRAM_BLOCKS_PER_STAGE * SRAM_BLOCK_BYTES;
    let sram_pct = 100.0 * mem.total() as f64 / sram_budget as f64;
    let stages_used = 6;
    let salu_used = 9; // 4 flow + 3 port + 1 meter + 1 status
    ResourceUsage {
        sram_pct,
        tcam_pct: 100.0 * 4.0 / (STAGES * TCAM_BLOCKS_PER_STAGE) as f64,
        phv_pct: 100.0 * 56.0 / PHV_BYTES as f64,
        stages_used,
        salu_pct: 100.0 * salu_used as f64 / (STAGES * SALU_PER_STAGE) as f64,
    }
}

/// The Fig. 13b sweep: memory vs epoch count and max flows per epoch.
pub fn memory_sweep(dims: SwitchDims) -> Vec<(usize, usize, MemoryUsage)> {
    let mut rows = Vec::new();
    for index_bits in [1u32, 2, 3] {
        for max_flows in [1024usize, 2048, 4096, 8192] {
            let cfg = TelemetryConfig {
                epochs: EpochConfig {
                    shift: 20,
                    index_bits,
                },
                max_flows,
            };
            rows.push((1 << index_bits, max_flows, memory_usage(&cfg, dims)));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(bits: u32, flows: usize) -> TelemetryConfig {
        TelemetryConfig {
            epochs: EpochConfig {
                shift: 20,
                index_bits: bits,
            },
            max_flows: flows,
        }
    }

    #[test]
    fn paper_testbed_configuration_fits_tofino() {
        // 4 epochs x 4096 flows, 64 ports (§4.5).
        let u = resource_usage(&cfg(2, 4096), SwitchDims::default());
        assert!(u.sram_pct < 15.0, "SRAM {:.1}% must fit easily", u.sram_pct);
        assert!(u.phv_pct < 10.0);
        assert!(u.stages_used <= STAGES);
        assert!(u.salu_pct < 25.0);
    }

    #[test]
    fn flow_memory_scales_linearly_with_flows() {
        let d = SwitchDims::default();
        let m1 = memory_usage(&cfg(2, 1024), d);
        let m4 = memory_usage(&cfg(2, 4096), d);
        assert_eq!(m4.flow_telemetry, 4 * m1.flow_telemetry);
        // Constant parts identical (bounded by port count).
        assert_eq!(m1.constant_part(), m4.constant_part());
    }

    #[test]
    fn constant_part_is_port_bounded_and_small() {
        let d = SwitchDims::default();
        let m = memory_usage(&cfg(2, 4096), d);
        // Meter: 4 epochs * 64*64 * 4B = 64 KiB; port telemetry 3 KiB;
        // status 512 B.
        assert_eq!(m.causality_meter, 4 * 64 * 64 * 4);
        assert_eq!(m.port_telemetry, 4 * 64 * 12);
        assert_eq!(m.pfc_status, 64 * 8);
        assert!(m.constant_part() < 128 * 1024);
        // Flow telemetry dominates (O(#flow), §4.5).
        assert!(m.flow_telemetry > m.constant_part());
    }

    #[test]
    fn memory_sweep_covers_grid() {
        let rows = memory_sweep(SwitchDims::default());
        assert_eq!(rows.len(), 12);
        // More epochs, more memory.
        let m2 = rows.iter().find(|(e, f, _)| *e == 2 && *f == 4096).unwrap();
        let m8 = rows.iter().find(|(e, f, _)| *e == 8 && *f == 4096).unwrap();
        assert!(m8.2.total() > m2.2.total() * 3);
    }
}
