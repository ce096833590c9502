//! Prometheus text exposition of an end-of-run [`Snapshot`].
//!
//! The encoder emits the version-0.0.4 text format: one `# TYPE` comment per
//! metric family followed by its sample lines, with histogram families
//! expanded into cumulative `_bucket{le=...}` lines plus `_sum`/`_count`.
//! Label order is fixed (`node`, `dev`, `app`, then `le`), values are
//! rendered so that `f64::from_str` round-trips them exactly, and families
//! appear in first-registration order — making the output deterministic and
//! byte-for-byte re-encodable, which the proptest suite exploits:
//! `encode(parse(encode(s))) == encode(s)`.

use crate::registry::{HistogramSnapshot, Labels, MetricRow, MetricValue, Snapshot};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Render a snapshot in Prometheus text exposition format.
pub fn encode(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut families: Vec<&str> = Vec::new();
    for row in &snap.rows {
        if !families.iter().any(|&f| f == row.name) {
            families.push(&row.name);
        }
    }
    for family in families {
        let rows: Vec<&MetricRow> = snap.rows.iter().filter(|r| r.name == family).collect();
        let kind = match rows[0].value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        let _ = writeln!(out, "# TYPE {family} {kind}");
        for row in rows {
            match &row.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{family}{} {v}", fmt_labels(row.labels, None));
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        "{family}{} {}",
                        fmt_labels(row.labels, None),
                        fmt_f64(*v)
                    );
                }
                MetricValue::Histogram(h) => encode_histogram(&mut out, family, row.labels, h),
            }
        }
    }
    out
}

fn encode_histogram(out: &mut String, family: &str, labels: Labels, h: &HistogramSnapshot) {
    let mut cum = 0u64;
    for (i, &bound) in h.bounds.iter().enumerate() {
        cum += h.counts.get(i).copied().unwrap_or(0);
        let _ = writeln!(
            out,
            "{family}_bucket{} {cum}",
            fmt_labels(labels, Some(&fmt_f64(bound)))
        );
    }
    cum += h.counts.last().copied().unwrap_or(0);
    let _ = writeln!(
        out,
        "{family}_bucket{} {cum}",
        fmt_labels(labels, Some("+Inf"))
    );
    let _ = writeln!(
        out,
        "{family}_sum{} {}",
        fmt_labels(labels, None),
        fmt_f64(h.sum)
    );
    let _ = writeln!(
        out,
        "{family}_count{} {}",
        fmt_labels(labels, None),
        h.count
    );
}

/// Render labels as `{node="0",dev="1",app="2",le="5.0"}`, or an empty
/// string when no label is present.
fn fmt_labels(labels: Labels, le: Option<&str>) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(n) = labels.node {
        parts.push(format!("node=\"{n}\""));
    }
    if let Some(d) = labels.dev {
        parts.push(format!("dev=\"{d}\""));
    }
    if let Some(a) = labels.app {
        parts.push(format!("app=\"{a}\""));
    }
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Render an f64 so `f64::from_str` recovers the exact value. Rust's `{:?}`
/// float formatting is the shortest exact representation; non-finite values
/// use Prometheus spellings.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v:?}")
    }
}

fn parse_f64(s: &str) -> Result<f64, String> {
    match s {
        "NaN" => Ok(f64::NAN),
        "+Inf" | "Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        _ => s
            .parse::<f64>()
            .map_err(|e| format!("bad float {s:?}: {e}")),
    }
}

/// Is `name` a valid Prometheus metric name for our encoder's subset?
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[derive(Debug, PartialEq, Clone, Copy)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

#[derive(Debug, Default)]
struct HistoPartial {
    bounds: Vec<f64>,
    cums: Vec<u64>,
    inf_cum: Option<u64>,
    sum: Option<f64>,
}

/// Parse text produced by [`encode`] back into a [`Snapshot`]. This is a
/// verifier for the exposition subset we emit, not a general Prometheus
/// parser: family members must be contiguous and histograms complete.
pub fn parse(text: &str) -> Result<Snapshot, String> {
    let mut kinds: HashMap<String, Kind> = HashMap::new();
    let mut rows: Vec<MetricRow> = Vec::new();
    let mut partials: HashMap<(String, Labels), HistoPartial> = HashMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or_else(|| err("missing family name".into()))?;
            let kind = match it.next() {
                Some("counter") => Kind::Counter,
                Some("gauge") => Kind::Gauge,
                Some("histogram") => Kind::Histogram,
                other => return Err(err(format!("unknown kind {other:?}"))),
            };
            if !valid_name(name) {
                return Err(err(format!("invalid family name {name:?}")));
            }
            if kinds.insert(name.to_string(), kind).is_some() {
                return Err(err(format!("duplicate TYPE for {name:?}")));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or arbitrary comment
        }

        let (name, labels, le, value) = parse_sample(line).map_err(&err)?;

        // Histogram member lines reference the family via a suffix.
        let histo_base = ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
            name.strip_suffix(suffix)
                .filter(|base| kinds.get(*base) == Some(&Kind::Histogram))
                .map(|base| (base.to_string(), *suffix))
        });
        if let Some((base, suffix)) = histo_base {
            let partial = partials.entry((base.clone(), labels)).or_default();
            match suffix {
                "_bucket" => {
                    let le = le.ok_or_else(|| err("bucket line without le".into()))?;
                    let cum = value
                        .parse::<u64>()
                        .map_err(|e| err(format!("bad bucket count: {e}")))?;
                    if le == "+Inf" || le == "Inf" {
                        partial.inf_cum = Some(cum);
                    } else {
                        partial.bounds.push(parse_f64(&le).map_err(&err)?);
                        partial.cums.push(cum);
                    }
                }
                "_sum" => partial.sum = Some(parse_f64(&value).map_err(&err)?),
                "_count" => {
                    // _count closes the family member: finalize the row.
                    let count = value
                        .parse::<u64>()
                        .map_err(|e| err(format!("bad count: {e}")))?;
                    let p = partials
                        .remove(&(base.clone(), labels))
                        .ok_or_else(|| err("orphan _count".into()))?;
                    rows.push(MetricRow {
                        name: base,
                        labels,
                        value: MetricValue::Histogram(finish_histogram(p, count).map_err(&err)?),
                    });
                }
                _ => unreachable!(),
            }
            continue;
        }

        if le.is_some() {
            return Err(err(format!("unexpected le label on {name:?}")));
        }
        let kind = kinds
            .get(&name)
            .ok_or_else(|| err(format!("sample for undeclared family {name:?}")))?;
        let value = match kind {
            Kind::Counter => MetricValue::Counter(
                value
                    .parse::<u64>()
                    .map_err(|e| err(format!("bad counter: {e}")))?,
            ),
            Kind::Gauge => MetricValue::Gauge(parse_f64(&value).map_err(&err)?),
            Kind::Histogram => {
                return Err(err(format!("bare sample for histogram family {name:?}")))
            }
        };
        rows.push(MetricRow {
            name,
            labels,
            value,
        });
    }

    if let Some(((name, _), _)) = partials.iter().next() {
        return Err(format!("incomplete histogram family {name:?}"));
    }
    Ok(Snapshot { rows })
}

fn finish_histogram(p: HistoPartial, count: u64) -> Result<HistogramSnapshot, String> {
    let inf = p.inf_cum.ok_or("histogram missing +Inf bucket")?;
    let sum = p.sum.ok_or("histogram missing _sum")?;
    if inf != count {
        return Err(format!("+Inf bucket {inf} disagrees with _count {count}"));
    }
    if !p.bounds.windows(2).all(|w| w[0] < w[1]) {
        return Err("histogram bounds not increasing".into());
    }
    let mut counts = Vec::with_capacity(p.cums.len() + 1);
    let mut prev = 0u64;
    for &c in &p.cums {
        counts.push(c.checked_sub(prev).ok_or("bucket counts not cumulative")?);
        prev = c;
    }
    counts.push(
        inf.checked_sub(prev)
            .ok_or("bucket counts not cumulative")?,
    );
    Ok(HistogramSnapshot {
        bounds: p.bounds,
        counts,
        sum,
        count,
    })
}

/// Split `name{k="v",...} value` into parts. Returns
/// `(name, labels, le, value_text)`.
fn parse_sample(line: &str) -> Result<(String, Labels, Option<String>, String), String> {
    let (ident, value) = match line.find('{') {
        Some(_) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| "unterminated label block".to_string())?;
            (
                line[..close + 1].to_string(),
                line[close + 1..].trim().to_string(),
            )
        }
        None => {
            let mut it = line.split_whitespace();
            let name = it.next().ok_or_else(|| "empty line".to_string())?;
            let value = it.next().ok_or_else(|| "missing value".to_string())?;
            if it.next().is_some() {
                return Err("trailing tokens".into());
            }
            (name.to_string(), value.to_string())
        }
    };
    if value.is_empty() {
        return Err("missing value".into());
    }

    let (name, labels, le) = match ident.find('{') {
        None => (ident, Labels::NONE, None),
        Some(brace) => {
            let name = ident[..brace].to_string();
            let body = &ident[brace + 1..ident.len() - 1];
            let mut labels = Labels::NONE;
            let mut le = None;
            for pair in body.split(',').filter(|p| !p.is_empty()) {
                let eq = pair
                    .find('=')
                    .ok_or_else(|| format!("bad label pair {pair:?}"))?;
                let key = &pair[..eq];
                let raw = &pair[eq + 1..];
                let val = raw
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("unquoted label value {raw:?}"))?;
                match key {
                    "node" => {
                        labels.node = Some(val.parse().map_err(|e| format!("bad node label: {e}"))?)
                    }
                    "dev" => {
                        labels.dev = Some(val.parse().map_err(|e| format!("bad dev label: {e}"))?)
                    }
                    "app" => {
                        labels.app = Some(val.parse().map_err(|e| format!("bad app label: {e}"))?)
                    }
                    "le" => le = Some(val.to_string()),
                    other => return Err(format!("unknown label {other:?}")),
                }
            }
            (name, labels, le)
        }
    };
    if !valid_name(&name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    Ok((name, labels, le, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    /// A registry snapshot with counter rows added after it, the way a
    /// count that the registry does not hold enters the exposition.
    fn sample_snapshot() -> Snapshot {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("ctl_depth", Labels::on(0, 0), 3.5);
        reg.set_gauge("sfq_vtime", Labels::on(0, 0).with_app(Some(2)), 1.25e9);
        for v in [0.5, 5.0, 5.5, 50.0, 500.0] {
            reg.observe("io_latency_ms", Labels::on(0, 0), &[1.0, 10.0, 100.0], v);
        }
        let mut snap = reg.snapshot();
        for (node, v) in [(0, 42), (1, 7)] {
            snap.rows.push(MetricRow {
                name: "dispatch_total".to_string(),
                labels: Labels::on(node, 0),
                value: MetricValue::Counter(v),
            });
        }
        snap
    }

    #[test]
    fn encode_shape() {
        let text = encode(&sample_snapshot());
        assert!(text.contains("# TYPE dispatch_total counter"));
        assert!(text.contains("dispatch_total{node=\"0\",dev=\"0\"} 42"));
        assert!(text.contains("# TYPE ctl_depth gauge"));
        assert!(text.contains("ctl_depth{node=\"0\",dev=\"0\"} 3.5"));
        assert!(text.contains("sfq_vtime{node=\"0\",dev=\"0\",app=\"2\"} 1250000000.0"));
        assert!(text.contains("io_latency_ms_bucket{node=\"0\",dev=\"0\",le=\"1.0\"} 1"));
        assert!(text.contains("io_latency_ms_bucket{node=\"0\",dev=\"0\",le=\"10.0\"} 3"));
        assert!(text.contains("io_latency_ms_bucket{node=\"0\",dev=\"0\",le=\"+Inf\"} 5"));
        assert!(text.contains("io_latency_ms_count{node=\"0\",dev=\"0\"} 5"));
    }

    #[test]
    fn parse_roundtrip() {
        let snap = sample_snapshot();
        let text = encode(&snap);
        let parsed = parse(&text).expect("parse");
        assert_eq!(parsed, snap);
        assert_eq!(encode(&parsed), text);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("dispatch_total 5").is_err()); // undeclared family
        assert!(parse("# TYPE x counter\nx{node=\"a\"} 5").is_err()); // bad label
        assert!(parse("# TYPE x widget").is_err()); // unknown kind
        assert!(parse("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1.0").is_err());
        // incomplete histogram
    }

    #[test]
    fn valid_name_subset() {
        assert!(valid_name("ctl_depth"));
        assert!(valid_name("_x9"));
        assert!(!valid_name("9x"));
        assert!(!valid_name(""));
        assert!(!valid_name("a-b"));
    }
}
