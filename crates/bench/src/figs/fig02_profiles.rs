//! Fig. 2 — "I/O demands of two classic MapReduce applications": the
//! read/write throughput profiles of TeraSort and WordCount, each running
//! alone on the full cluster.

use crate::experiments::{hdd_cluster, volumes};
use crate::results::ResultSink;
use crate::scale::ScaleProfile;
use crate::table::Table;
use ibis_cluster::prelude::*;
use ibis_workloads::{terasort, wordcount};

fn profile_job(name: &str, spec: ibis_mapreduce::JobSpec) -> (RunReport, Vec<(f64, f64, f64)>) {
    let mut exp = Experiment::new(hdd_cluster(Policy::Native));
    exp.add_job(spec);
    let report = exp.run();
    let app = report.jobs[0].app;
    let read = report.app_read.get(&app);
    let write = report.app_write.get(&app);
    // Sample the two series onto a joint 5-second grid.
    let horizon = report.makespan.as_secs_f64();
    let step = (horizon / 40.0).max(1.0);
    let mut points = Vec::new();
    let sample = |ts: Option<&ibis_simcore::metrics::TimeSeries>, t: f64| -> f64 {
        ts.map_or(0.0, |ts| {
            ts.rates()
                .filter(|(at, _)| {
                    let s = at.as_secs_f64();
                    s >= t && s < t + step
                })
                .map(|(_, r)| r)
                .sum::<f64>()
                / (step / ts.bin_width().as_secs_f64()).max(1.0)
        })
    };
    let mut t = 0.0;
    while t < horizon {
        // max(0.0) normalises IEEE −0.0 so reports never print "-0".
        points.push((
            t,
            (sample(read, t) / 1e6).max(0.0),
            (sample(write, t) / 1e6).max(0.0),
        ));
        t += step;
    }
    let _ = name;
    (report, points)
}

/// Runs the figure; prints the two profiles and returns the recorded
/// summary statistics.
pub fn run(scale: ScaleProfile) -> ResultSink {
    let mut sink = ResultSink::new("fig02_profiles", scale.label());
    println!("Fig. 2 — I/O profiles of TeraSort and WordCount (alone, Native)\n");

    for (name, spec) in [
        ("TeraSort", terasort(scale.bytes(volumes::TERASORT))),
        ("WordCount", wordcount(scale.bytes(volumes::WORDCOUNT))),
    ] {
        let (report, points) = profile_job(name, spec);
        println!("{name} ({}):", scale.label());
        let mut t = Table::new(&["t (s)", "read MB/s", "write MB/s"]);
        for &(at, r, w) in &points {
            t.row(&[format!("{at:.0}"), format!("{r:.0}"), format!("{w:.0}")]);
        }
        t.print();
        let peak_read = points.iter().map(|p| p.1).fold(0.0, f64::max);
        let peak_write = points.iter().map(|p| p.2).fold(0.0, f64::max);
        let read_bytes = report.bytes_read() as f64;
        let written_bytes = report.bytes_written() as f64;
        println!(
            "  runtime {:.1}s; peak read {peak_read:.0} MB/s, peak write \
             {peak_write:.0} MB/s; volume read {:.1} GB written {:.1} GB\n",
            report.jobs[0].runtime.as_secs_f64(),
            read_bytes / 1e9,
            written_bytes / 1e9,
        );
        let key = name.to_lowercase();
        sink.record(&format!("{key}_runtime_s"), report.jobs[0].runtime.as_secs_f64());
        sink.record(&format!("{key}_peak_read_mbs"), peak_read);
        sink.record(&format!("{key}_peak_write_mbs"), peak_write);
        sink.record(&format!("{key}_read_gb"), read_bytes / 1e9);
        sink.record(&format!("{key}_write_gb"), written_bytes / 1e9);
    }

    // The paper's qualitative claims.
    let ts_w = sink.get("terasort_write_gb").unwrap_or(0.0);
    let wc_w = sink.get("wordcount_write_gb").unwrap_or(0.0);
    sink.note(format!(
        "TeraSort writes {:.1}x the volume WordCount writes (paper: TeraSort \
         is far more I/O-intensive in every phase)",
        ts_w / wc_w.max(1e-9)
    ));
    sink
}
