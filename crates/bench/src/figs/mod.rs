//! One module per regenerated table/figure (see DESIGN.md §4 for the
//! index). Each exposes `run(scale) -> ResultSink`, which prints the
//! table; `all_experiments [NAME…]` runs the [`suite`] entries and saves
//! their results, and `bench sweep` times the whole suite.

use crate::results::ResultSink;
use crate::scale::ScaleProfile;

/// A figure/table entry point: runs at the given scale, returns results.
pub type FigureFn = fn(ScaleProfile) -> ResultSink;

/// One runnable entry of the regeneration suite.
#[derive(Clone, Copy)]
pub struct SuiteEntry {
    /// CLI subset name (`all_experiments fig06`).
    pub name: &'static str,
    /// One-line description shown by `all_experiments --list`.
    pub title: &'static str,
    /// The entry point.
    pub run: FigureFn,
}

const fn entry(name: &'static str, title: &'static str, run: FigureFn) -> SuiteEntry {
    SuiteEntry { name, title, run }
}

/// The complete suite in EXPERIMENTS.md order — shared by the
/// `all_experiments` regeneration bin and the `bench sweep` record.
pub fn suite() -> Vec<SuiteEntry> {
    vec![
        entry(
            "tab01",
            "Table 1: cluster/Hadoop configuration",
            tab01_config::run,
        ),
        entry(
            "fig02",
            "Fig. 2: TeraSort and WordCount read/write throughput over time",
            fig02_profiles::run,
        ),
        entry(
            "fig03",
            "Fig. 3: motivation — native interference",
            fig03_motivation::run,
        ),
        entry(
            "fig06",
            "Fig. 6: WordCount vs TeraGen isolation (HDD)",
            fig06_isolation_hdd::run,
        ),
        entry(
            "fig07",
            "Fig. 7: SFQ(D2) depth/latency trace",
            fig07_depth_trace::run,
        ),
        entry(
            "fig08",
            "Fig. 8: isolation on SSD",
            fig08_isolation_ssd::run,
        ),
        entry("fig09", "Fig. 9: Facebook-mix latency", fig09_facebook::run),
        entry(
            "fig10",
            "Fig. 10: multi-framework sharing",
            fig10_multiframework::run,
        ),
        entry(
            "fig11",
            "Fig. 11: proportional slowdown vs weight",
            fig11_prop_slowdown::run,
        ),
        entry(
            "fig12",
            "Fig. 12: distributed coordination on skewed data",
            fig12_coordination::run,
        ),
        entry(
            "fig13",
            "Fig. 13: interposition overhead",
            fig13_overhead::run,
        ),
        entry(
            "tab02",
            "Table 2: IBIS machinery resource usage",
            tab02_resources::run,
        ),
        entry("tab03", "Table 3: lines-of-code accounting", tab03_loc::run),
        entry(
            "obs_overhead",
            "Table 2 analogue: flight-recorder overhead",
            obs_overhead::run,
        ),
        entry(
            "fig_convergence",
            "Convergence: SFQ(D2) controller step-load diagnostics",
            fig_convergence::run,
        ),
        entry(
            "fig_faults",
            "Chaos: fairness and makespan under injected faults",
            fig_faults::run,
        ),
        entry(
            "fig_trace",
            "Open system: JSONL trace replay, per-tenant latency",
            fig_trace::run,
        ),
        entry(
            "fig_burst",
            "Open system: FaaS burst tenant tail latency",
            fig_burst::run,
        ),
        entry(
            "fig_attribution",
            "Causal tracing: per-tenant latency decomposition + DAG critical path",
            fig_attribution::run,
        ),
        entry(
            "fig_scale",
            "Scale ladder: Jain fairness flat vs tree broker, 64→1024 nodes",
            fig_scale::run,
        ),
        entry(
            "ablate_controller",
            "Ablation: depth-controller parameters",
            ablations::controller,
        ),
        entry(
            "ablate_sync_period",
            "Ablation: broker sync period",
            ablations::sync_period,
        ),
        entry(
            "ablate_delay_cap",
            "Ablation: DSFQ delay cap",
            ablations::delay_cap,
        ),
        entry(
            "ablate_write_window",
            "Ablation: client write/read windows",
            ablations::write_window,
        ),
        entry(
            "ablate_strict",
            "Ablation: strict priority vs SFQ",
            ablations::strict,
        ),
        entry(
            "ablate_network_control",
            "Ablation: network weight enforcement",
            ablations::network_control,
        ),
    ]
}

pub mod ablations;
pub mod fig02_profiles;
pub mod fig03_motivation;
pub mod fig06_isolation_hdd;
pub mod fig07_depth_trace;
pub mod fig08_isolation_ssd;
pub mod fig09_facebook;
pub mod fig10_multiframework;
pub mod fig11_prop_slowdown;
pub mod fig12_coordination;
pub mod fig13_overhead;
pub mod fig_attribution;
pub mod fig_burst;
pub mod fig_convergence;
pub mod fig_faults;
pub mod fig_scale;
pub mod fig_trace;
pub mod obs_overhead;
pub mod tab01_config;
pub mod tab02_resources;
pub mod tab03_loc;
