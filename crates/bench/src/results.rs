//! Machine-readable result recording.
//!
//! Every figure writes its measured values to
//! `results/<experiment>.json` so EXPERIMENTS.md entries can be
//! regenerated and diffed across runs.

use crate::json;
use std::fs;
use std::path::PathBuf;

/// The directory every result file goes to — `IBIS_RESULTS_DIR` when set,
/// else `results/` under the working directory — created if missing.
pub fn dir() -> std::io::Result<PathBuf> {
    let dir: PathBuf = std::env::var("IBIS_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Collects named measurements for one experiment and writes them as a
/// JSON object on drop-free explicit save.
#[derive(Debug)]
pub struct ResultSink {
    /// Experiment id ("fig06", "tab02", …).
    pub experiment: String,
    /// Scale label the run used.
    pub scale: String,
    /// Ordered (key, value) measurements.
    pub values: Vec<(String, f64)>,
    /// Free-form notes (series data, caveats).
    pub notes: Vec<String>,
}

impl ResultSink {
    /// Creates a sink for `experiment`.
    pub fn new(experiment: &str, scale: &str) -> Self {
        ResultSink {
            experiment: experiment.to_string(),
            scale: scale.to_string(),
            values: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records one measurement.
    pub fn record(&mut self, key: &str, value: f64) -> &mut Self {
        self.values.push((key.to_string(), value));
        self
    }

    /// Records a note.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Looks up a recorded value.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Writes `<experiment>.json` under [`dir`]. Errors are reported but
    /// non-fatal — figures still print to stdout.
    pub fn save(&self) {
        let dir = match dir() {
            Ok(dir) => dir,
            Err(e) => {
                eprintln!("warning: cannot create the results directory: {e}");
                return;
            }
        };
        let path = dir.join(format!("{}.json", self.experiment));
        if let Err(e) = fs::write(&path, self.to_json()) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            eprintln!("(results saved to {})", path.display());
        }
    }

    /// Renders the sink as a pretty-printed JSON object (the on-disk
    /// format of `results/<experiment>.json`).
    pub fn to_json(&self) -> String {
        let mut w = json::Writer::new();
        w.open_object(None);
        w.string(Some("experiment"), &self.experiment);
        w.string(Some("scale"), &self.scale);
        w.open_array(Some("values"));
        for (k, v) in &self.values {
            w.open_array(None);
            w.string(None, k);
            w.number(None, *v);
            w.close();
        }
        w.close();
        w.open_array(Some("notes"));
        for n in &self.notes {
            w.string(None, n);
        }
        w.close();
        w.close();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_get() {
        let mut s = ResultSink::new("figX", "quick");
        s.record("wc_alone_s", 100.0).record("wc_native_s", 207.0);
        assert_eq!(s.get("wc_alone_s"), Some(100.0));
        assert_eq!(s.get("missing"), None);
        assert_eq!(s.values.len(), 2);
    }

    #[test]
    fn save_respects_env_dir() {
        let tmp = std::env::temp_dir().join(format!("ibis-results-{}", std::process::id()));
        std::env::set_var("IBIS_RESULTS_DIR", &tmp);
        let mut s = ResultSink::new("unit-test", "quick");
        s.record("x", 1.0);
        s.save();
        let path = tmp.join("unit-test.json");
        let data = std::fs::read_to_string(&path).expect("file written");
        assert!(data.contains("\"unit-test\""));
        // fig_attribution's joined CSV resolves through the same
        // directory, which `dir` creates when it is missing.
        std::fs::remove_dir_all(&tmp).expect("remove results dir");
        let csv = dir()
            .expect("results dir created")
            .join("fig_attribution.csv");
        assert_eq!(csv, tmp.join("fig_attribution.csv"));
        assert!(tmp.is_dir());
        std::env::remove_var("IBIS_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
