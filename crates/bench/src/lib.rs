//! # st-bench — the figure-regeneration harness
//!
//! One module per paper artefact (see DESIGN.md §4 and EXPERIMENTS.md):
//!
//! | experiment | paper artefact | binary |
//! |---|---|---|
//! | [`fig2a`] | Fig. 2a search latency + success rate | `cargo run -p st-bench --release --bin fig2a` |
//! | [`fig2c`] | Fig. 2c tracking/handover CDF | `cargo run -p st-bench --release --bin fig2c` |
//! | [`init_access`] | §1 "up to 1.28 s" initial-search bound | `cargo run -p st-bench --release --bin init_access` |
//! | [`interruption`] | §1/§2 soft vs hard handover motivation | `cargo run -p st-bench --release --bin interruption` |
//! | [`ablation`] | design-choice sensitivity (DESIGN.md E6) | `cargo run -p st-bench --release --bin ablation` |
//! | [`resource`] | measurement-gap duty-cycle trade-off (E7) | `cargo run -p st-bench --release --bin resource` |
//! | [`robustness`] | pedestrian-blockage sweep (E8) | `cargo run -p st-bench --release --bin robustness` |
//! | [`patterns`] | sectored vs true-ULA antenna realism (E9) | `cargo run -p st-bench --release --bin patterns` |
//! | [`fleet_load`] | soft vs hard handover under fleet-scale PRACH load | `cargo run -p st-bench --release --bin fleet_load` |
//! | [`blockage_study`] | silent vs reactive under moving geometric blockers | `cargo run -p st-bench --release --bin blockage_study` |
//!
//! Timing tools sit beside them: `des_throughput` (the event queue), `sweep`
//! (the phy kernels) and `replay_eval` (the protocol fold over a recorded
//! trace).

pub mod ablation;
pub mod blockage_study;
pub mod fig2a;
pub mod fig2c;
pub mod fleet_load;
pub mod init_access;
pub mod interruption;
pub mod patterns;
pub mod resource;
pub mod robustness;
pub mod runner;
