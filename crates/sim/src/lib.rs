//! Event-driven memory-system simulator.
//!
//! This crate stands in for the paper's gem5 setup (see DESIGN.md for the
//! substitution rationale). It simulates:
//!
//! - up to four **MLP-limited cores**, each driving a deterministic
//!   [`RequestGenerator`](aqua_workload::RequestGenerator) stream. A core
//!   issues its next request when its compute "gap" has elapsed *and* an
//!   outstanding-miss slot is free — the first-order model of an OoO core's
//!   memory-level parallelism;
//! - the **shared DDR4 channel and banks** from [`aqua_dram`], including
//!   refresh blackouts and the exclusive channel blocking of row migrations
//!   (the dominant slowdown source in the paper, section IV-G);
//! - any **[`Mitigation`](aqua_dram::mitigation::Mitigation)** scheme —
//!   AQUA (SRAM or memory-mapped), RRS, victim refresh, Blockhammer, or the
//!   no-op baseline — driven through the translate / on-activation protocol;
//! - a ground-truth **[`ActivationOracle`]** that counts every physical row
//!   activation (including mitigative victim refreshes, which the trackers
//!   never see — exactly the blind spot Half-Double exploits) and reports
//!   any row exceeding `T_RH` activations within a two-epoch window.
//!
//! The performance metric is work completed in fixed wall-clock time:
//! `normalized_perf = requests(mitigated) / requests(baseline)` for the same
//! seeded request streams, equivalent to the paper's normalized IPC.
//!
//! # Example
//!
//! ```no_run
//! use aqua_dram::BaselineConfig;
//! use aqua_sim::{SimConfig, Simulation};
//! use aqua_dram::mitigation::NoMitigation;
//! use aqua_workload::{spec, AddressSpace};
//!
//! let base = BaselineConfig::paper_table1();
//! let cfg = SimConfig::new(base).epochs(2);
//! let space = AddressSpace::new(base.geometry, 0.98);
//! let lbm = spec::by_name("lbm").unwrap();
//! let gens = (0..4).map(|c| {
//!     Box::new(lbm.generator(&space, c, 4, 42)) as Box<dyn aqua_workload::RequestGenerator>
//! });
//! let mut sim = Simulation::new(cfg, NoMitigation::new(base.geometry), gens);
//! let report = sim.run();
//! println!("requests completed: {}", report.requests_done);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Robustness: the simulator must degrade gracefully under injected faults,
// never abort. Tests keep their unwraps (a failed unwrap there IS the test
// failing).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod ablation;
mod bitset;
mod core_model;
mod oracle;
pub mod pool;
mod report;
mod shadow;
mod sharded;
mod system;

pub use ablation::CostAblation;
pub use core_model::CoreState;
pub use oracle::{ActivationOracle, OracleSummary};
pub use report::{gmean, RunReport};
pub use shadow::ShadowMemory;
pub use sharded::ShardedSimulation;
pub use system::{SimConfig, Simulation};
