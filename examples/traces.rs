//! Open-system workloads: compose a three-tenant bursty mix from one
//! seed, replay it on the IBIS cluster, and read per-tenant latency.
//!
//! ```sh
//! cargo run --release --example traces [seed]
//! ```
//!
//! The mix (built with `ibis::workgen`):
//!
//! * `etl` — a periodic heavy-tailed batch pipeline (weight 8).
//! * `adhoc` — Poisson-arriving interactive SWIM-envelope queries
//!   (weight 4).
//! * `faas` — an on/off FaaS burst tenant: ~2 s bursts of 50 ms-spaced
//!   short jobs, ~30 s silences, 4× cold-start penalty (weight 1).
//!
//! Everything downstream of the seed is deterministic: same seed, same
//! arrivals, same job shapes, byte-identical report. The example also
//! round-trips the mix through the JSONL trace format (DESIGN.md §15)
//! to show the two entry points are interchangeable.

use ibis::prelude::*;
use ibis::workgen::trace;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0x7ace);

    let mix = MixConfig::new(seed)
        .tenant(TenantSpec::new(
            "etl",
            8.0,
            10,
            ArrivalProcess::Poisson {
                mean_interarrival: SimDuration::from_secs(20),
            },
            JobShape::heavy_tailed(),
        ))
        .tenant(TenantSpec::new(
            "adhoc",
            4.0,
            25,
            ArrivalProcess::Poisson {
                mean_interarrival: SimDuration::from_secs(8),
            },
            JobShape::swim(),
        ))
        .tenant(burst_tenant("faas", BurstProfile::faas(300).weight(1.0)));

    println!(
        "seed {seed:#x}: composing {} jobs across 3 tenants",
        mix.total_jobs()
    );

    // A composed mix exports to the JSONL trace format for versioning or
    // hand-editing, and the export parses back losslessly.
    let jsonl = trace::emit(&trace::from_specs(&mix.compose()));
    let records = trace::parse(&jsonl).expect("emitted trace parses");
    println!("trace round-trip: {} JSONL records\n", records.len());

    let cluster = ClusterConfig::default()
        .with_policy(Policy::SfqD2(Default::default()))
        .with_coordination(true);
    let mut exp = Experiment::new(cluster);
    exp.add_mix(&mix);
    let report = exp.run();

    println!(
        "{:<8} {:>6} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "tenant", "weight", "jobs", "p50", "p90", "p99", "max"
    );
    for t in &report.tenants {
        assert_eq!(t.finished, t.submitted, "tenant {} lost jobs", t.name);
        let q = |q: f64| {
            t.latency_ms(q)
                .map_or("-".to_string(), |ms| format!("{:.2} s", ms / 1e3))
        };
        println!(
            "{:<8} {:>6} {:>6} {:>10} {:>10} {:>10} {:>10}",
            t.name,
            t.weight,
            t.finished,
            q(0.5),
            q(0.9),
            q(0.99),
            q(1.0),
        );
    }
    println!(
        "\nmakespan {:.1} s over {} arrivals — rerun with the same seed for a \
         byte-identical report, or a different seed for a fresh workload",
        report.makespan.as_secs_f64(),
        report.jobs.len(),
    );
}
