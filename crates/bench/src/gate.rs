//! The check path every bench record shares: one argument parser, one
//! reader for committed `BENCH_*.json` records with the two relative
//! limit shapes, and one reporter.
//!
//! A gate is a pure function of the fresh numbers and a [`Baseline`], so
//! each limit is unit-tested against the committed records in any build
//! profile.

use crate::json;

/// A gate's verdict on fresh numbers: the broken limits, or `Err` when the
/// baseline lacks a key the gate reads.
pub type Verdict = Result<Vec<String>, String>;

/// Bench arguments after the record name: `[--check BASELINE] [OUT]` in
/// any order, plus `--prom PATH` and `--csv PATH` where exports are
/// accepted (`bench metrics`).
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    /// Committed record to gate the fresh numbers against.
    pub check: Option<String>,
    /// Prometheus exposition of the end-of-run metrics snapshot.
    pub prom: Option<String>,
    /// Long-form CSV of the sampled metrics series.
    pub csv: Option<String>,
    /// Where the fresh record goes.
    pub out: Option<String>,
}

impl Args {
    /// Parses `args`; `exports` says whether `--prom` and `--csv` are
    /// accepted. `Err` says what is wrong.
    pub fn parse(args: impl IntoIterator<Item = String>, exports: bool) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let (slot, value) = match arg.as_str() {
                "--check" => (&mut parsed.check, it.next()),
                "--prom" if exports => (&mut parsed.prom, it.next()),
                "--csv" if exports => (&mut parsed.csv, it.next()),
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
                _ => (&mut parsed.out, Some(arg.clone())),
            };
            let value = value.ok_or_else(|| format!("{arg} needs a path"))?;
            if slot.replace(value).is_some() {
                return Err(format!("{arg}: repeated argument"));
            }
        }
        Ok(parsed)
    }
}

/// A committed `BENCH_*.json` record, read by object name and key.
#[derive(Debug)]
pub struct Baseline {
    path: String,
    doc: String,
    /// Whether wall-clock limits apply: the record was measured under the
    /// build profile of the binary that gates against it.
    pub timed: bool,
}

impl Baseline {
    /// Reads the record at `path` for this binary's build profile.
    pub fn read(path: &str) -> Result<Baseline, String> {
        let doc = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        Ok(Baseline::parse(path, doc, json::build_profile()))
    }

    /// The record `doc`, named `path`, as a binary built under `profile`
    /// gates against it.
    pub fn parse(path: &str, doc: impl Into<String>, profile: &str) -> Baseline {
        let doc = doc.into();
        let timed = doc.contains(&format!("\"build_profile\": \"{profile}\""));
        Baseline {
            path: path.to_string(),
            doc,
            timed,
        }
    }

    /// The number under `key` after the first `"object":` in the record;
    /// `Err` names what is missing.
    pub fn num(&self, object: &str, key: &str) -> Result<f64, String> {
        let missing = || format!("baseline {} has no {object}.{key}", self.path);
        let at = self
            .doc
            .find(&format!("\"{object}\":"))
            .ok_or_else(missing)?;
        let needle = format!("\"{key}\":");
        let rest = &self.doc[at..];
        let tail = &rest[rest.find(&needle).ok_or_else(missing)? + needle.len()..];
        let end = tail.find([',', '\n', '}']).unwrap_or(tail.len());
        tail[..end].trim().parse().map_err(|_| missing())
    }

    /// A failure when `fresh` exceeds the record's `object.key` by more
    /// than `pct` percent.
    pub fn at_most(&self, object: &str, key: &str, fresh: f64, pct: f64) -> Verdict {
        let what = format!("{} {object}.{key}: fresh", self.path);
        Ok(at_most(&what, fresh, self.num(object, key)?, pct)
            .into_iter()
            .collect())
    }

    /// A failure when `fresh` falls below the record's `object.key` by
    /// more than `pct` percent.
    pub fn at_least(&self, object: &str, key: &str, fresh: f64, pct: f64) -> Verdict {
        let base = self.num(object, key)?;
        let limit = base * (1.0 - pct / 100.0);
        let what = format!("{} {object}.{key}: fresh", self.path);
        Ok(Vec::from_iter((fresh < limit).then(|| {
            format!("{what} {fresh:.1} is below {base:.1} − {pct}% = {limit:.1}")
        })))
    }
}

/// The `--check` baseline in `args`, if any; an unreadable one fails
/// `bench`'s check at once (exit 1).
pub fn baseline(bench: &str, args: &Args) -> Option<Baseline> {
    args.check.as_deref().map(|path| {
        Baseline::read(path).unwrap_or_else(|e| {
            eprintln!("[{bench}] CHECK FAILED: {e}");
            std::process::exit(1)
        })
    })
}

/// A failure, named `what`, when `fresh` exceeds `base` by more than
/// `pct` percent.
pub fn at_most(what: &str, fresh: f64, base: f64, pct: f64) -> Option<String> {
    let limit = base * (1.0 + pct / 100.0);
    (fresh > limit).then(|| format!("{what} {fresh:.1} exceeds {base:.1} + {pct}% = {limit:.1}"))
}

/// Prints `bench`'s verdict against `base` and exits 1 on any failure.
/// A gate that returned `Err` (a key missing from the baseline) fails.
pub fn report(bench: &str, base: &Baseline, verdict: Verdict) {
    if !base.timed {
        eprintln!(
            "[{bench}] {} was not measured by a {} build: wall-clock limits skipped",
            base.path,
            json::build_profile()
        );
    }
    let failures = verdict.unwrap_or_else(|e| vec![e]);
    if failures.is_empty() {
        eprintln!("[{bench}] --check vs {}: OK", base.path);
        return;
    }
    for f in &failures {
        eprintln!("[{bench}] CHECK FAILED: {f}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str], exports: bool) -> Result<Args, String> {
        Args::parse(v.iter().map(|s| s.to_string()), exports)
    }

    #[test]
    fn parses_flags_and_out_in_any_order() {
        let got = args(&["fresh.json", "--check", "B.json", "--csv", "m.csv"], true).unwrap();
        let want = (Some("B.json"), Some("fresh.json"), None, Some("m.csv"));
        assert_eq!(
            (
                got.check.as_deref(),
                got.out.as_deref(),
                got.prom.as_deref(),
                got.csv.as_deref()
            ),
            want
        );
        assert_eq!(args(&[], false), Ok(Args::default()));
        for bad in [
            &["--check"][..],
            &["--bogus", "x"],
            &["a.json", "b.json"],
            &["--prom", "m.prom"],
        ] {
            assert!(args(bad, false).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn reads_numbers_by_object_and_key() {
        let doc = "{\n  \"build_profile\": \"release\",\n  \"a\": {\n    \"x\": 1.5,\n    \"y\": 2.0\n  },\n  \"b\": {\n    \"x\": -3e2\n  }\n}\n";
        let base = Baseline::parse("t.json", doc, "release");
        assert!(base.timed && !Baseline::parse("t.json", doc, "debug").timed);
        assert_eq!(
            (base.num("a", "x"), base.num("a", "y"), base.num("b", "x")),
            (Ok(1.5), Ok(2.0), Ok(-300.0))
        );
        assert!(base.num("c", "x").is_err() && base.num("b", "y").is_err());
    }
}
