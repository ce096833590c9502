//! JSONL workload traces: parse, emit, and lower to job specs.
//!
//! The trace format is one flat JSON object per line; blank lines and
//! lines starting with `#` are skipped. Fields (see DESIGN.md §15 for the
//! normative spec):
//!
//! | key               | type   | required | default | meaning |
//! |-------------------|--------|----------|---------|---------|
//! | `at`              | number | yes      | —       | arrival offset, seconds |
//! | `tenant`          | string | no       | `trace` | owning tenant / flow |
//! | `weight`          | number | no       | `1.0`   | IBIS I/O weight |
//! | `maps`            | number | no       | `1`     | map-task count |
//! | `shuffle_ratio`   | number | no       | `1.0`   | map output ÷ map input |
//! | `output_ratio`    | number | no       | `1.0`   | reduce output ÷ shuffle |
//! | `reduces`         | number | no       | `0`     | reduce-task count |
//! | `map_cpu_rate`    | number | no       | `6e7`   | bytes/s per core |
//! | `reduce_cpu_rate` | number | no       | `6e7`   | bytes/s per core |
//! | `input`           | string | no       | `dfs`   | `dfs` (one block/map) or `gen` (synthetic maps) |
//!
//! Unknown keys are an error — traces are hand-edited often enough that a
//! silently ignored typo (`shufle_ratio`) would corrupt an experiment.
//! The parser is hand-rolled (the build environment has no serde); floats
//! are emitted with `{:?}` so emit→parse round-trips bit-exactly.

use ibis_mapreduce::{InputSpec, JobSpec};
use ibis_simcore::units::{HDFS_BLOCK, MIB};
use ibis_simcore::SimDuration;

/// One trace line: a job arrival with its shape.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Arrival offset from experiment start, seconds.
    pub at_secs: f64,
    /// Owning tenant.
    pub tenant: String,
    /// IBIS I/O weight of the tenant's flow.
    pub weight: f64,
    /// Map-task count.
    pub maps: u32,
    /// Map output ÷ map input.
    pub shuffle_ratio: f64,
    /// Reduce output ÷ shuffle input.
    pub output_ratio: f64,
    /// Reduce-task count (0 = map-only).
    pub reduces: u32,
    /// Map compute rate, bytes/s per core.
    pub map_cpu_rate: f64,
    /// Reduce compute rate, bytes/s per core.
    pub reduce_cpu_rate: f64,
    /// `true` = DFS input file of `maps` blocks; `false` = generator job.
    pub dfs_input: bool,
}

impl Default for TraceRecord {
    fn default() -> Self {
        TraceRecord {
            at_secs: 0.0,
            tenant: "trace".to_string(),
            weight: 1.0,
            maps: 1,
            shuffle_ratio: 1.0,
            output_ratio: 1.0,
            reduces: 0,
            map_cpu_rate: 6e7,
            reduce_cpu_rate: 6e7,
            dfs_input: true,
        }
    }
}

/// A scanned JSON scalar.
enum Value {
    Num(f64),
    Str(String),
}

/// Minimal parser over one flat JSON object (string/number values only).
struct Scan<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Scan<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i).copied() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = self.b.get(self.i + 1).copied();
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        _ => return Err(format!("unsupported escape at byte {}", self.i)),
                    }
                    self.i += 2;
                }
                Some(c) => {
                    out.push(c as char);
                    self.i += 1;
                }
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(c) if c == b'-' || c == b'+' || c.is_ascii_digit() => {
                let start = self.i;
                while self
                    .b
                    .get(self.i)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                let s = std::str::from_utf8(&self.b[start..self.i]).unwrap();
                s.parse::<f64>()
                    .map(Value::Num)
                    .map_err(|e| format!("bad number {s:?}: {e}"))
            }
            other => Err(format!(
                "expected value, found {other:?} at byte {}",
                self.i
            )),
        }
    }
}

fn num(v: Value, key: &str) -> Result<f64, String> {
    match v {
        Value::Num(n) => Ok(n),
        Value::Str(_) => Err(format!("{key}: expected a number")),
    }
}

fn count(v: Value, key: &str) -> Result<u32, String> {
    let n = num(v, key)?;
    if n < 0.0 || n.fract() != 0.0 || n > u32::MAX as f64 {
        return Err(format!("{key}: expected a non-negative integer, got {n}"));
    }
    Ok(n as u32)
}

fn parse_record(line: &str) -> Result<TraceRecord, String> {
    let mut s = Scan {
        b: line.as_bytes(),
        i: 0,
    };
    s.expect(b'{')?;
    let mut rec = TraceRecord::default();
    let mut saw_at = false;
    if s.peek() != Some(b'}') {
        loop {
            let key = s.string()?;
            s.expect(b':')?;
            let v = s.value()?;
            match key.as_str() {
                "at" => {
                    rec.at_secs = num(v, "at")?;
                    if !(rec.at_secs.is_finite() && rec.at_secs >= 0.0) {
                        return Err(format!(
                            "at: must be a finite offset ≥ 0, got {}",
                            rec.at_secs
                        ));
                    }
                    saw_at = true;
                }
                "tenant" => match v {
                    Value::Str(t) => rec.tenant = t,
                    Value::Num(_) => return Err("tenant: expected a string".to_string()),
                },
                "weight" => rec.weight = num(v, "weight")?,
                "maps" => rec.maps = count(v, "maps")?.max(1),
                "shuffle_ratio" => rec.shuffle_ratio = num(v, "shuffle_ratio")?,
                "output_ratio" => rec.output_ratio = num(v, "output_ratio")?,
                "reduces" => rec.reduces = count(v, "reduces")?,
                "map_cpu_rate" => rec.map_cpu_rate = num(v, "map_cpu_rate")?,
                "reduce_cpu_rate" => rec.reduce_cpu_rate = num(v, "reduce_cpu_rate")?,
                "input" => match v {
                    Value::Str(ref m) if m == "dfs" => rec.dfs_input = true,
                    Value::Str(ref m) if m == "gen" => rec.dfs_input = false,
                    _ => return Err("input: expected \"dfs\" or \"gen\"".to_string()),
                },
                other => return Err(format!("unknown key {other:?}")),
            }
            match s.peek() {
                Some(b',') => {
                    s.i += 1;
                }
                _ => break,
            }
        }
    }
    s.expect(b'}')?;
    s.ws();
    if s.i != s.b.len() {
        return Err(format!("trailing content at byte {}", s.i));
    }
    if !saw_at {
        return Err("missing required key \"at\"".to_string());
    }
    if rec.weight <= 0.0 {
        return Err(format!("weight: must be positive, got {}", rec.weight));
    }
    Ok(rec)
}

/// Parses a JSONL trace. Errors name the 1-based line.
pub fn parse(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        out.push(parse_record(t).map_err(|e| format!("trace line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// Emits a trace as JSONL, one record per line, every field explicit.
/// Floats use `{:?}` so `parse(&emit(r)) == r` bit-exactly.
pub fn emit(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&format!(
            "{{\"at\": {:?}, \"tenant\": \"{}\", \"weight\": {:?}, \"maps\": {}, \
             \"shuffle_ratio\": {:?}, \"output_ratio\": {:?}, \"reduces\": {}, \
             \"map_cpu_rate\": {:?}, \"reduce_cpu_rate\": {:?}, \"input\": \"{}\"}}\n",
            r.at_secs,
            r.tenant,
            r.weight,
            r.maps,
            r.shuffle_ratio,
            r.output_ratio,
            r.reduces,
            r.map_cpu_rate,
            r.reduce_cpu_rate,
            if r.dfs_input { "dfs" } else { "gen" },
        ));
    }
    out
}

/// Lowers trace records to job specs, sorted by `(arrival, file order)`.
/// Job `i` (post-sort) is named `{tenant}-t{i}`; DFS-input jobs read a
/// distinct `{tenant}-t{i}-input` file of `maps` HDFS blocks.
pub fn to_specs(records: &[TraceRecord]) -> Vec<JobSpec> {
    let mut idx: Vec<usize> = (0..records.len()).collect();
    idx.sort_by(|&a, &b| {
        records[a]
            .at_secs
            .total_cmp(&records[b].at_secs)
            .then(a.cmp(&b))
    });
    idx.into_iter()
        .enumerate()
        .map(|(i, ri)| {
            let r = &records[ri];
            let name = format!("{}-t{i}", r.tenant);
            let input = if r.dfs_input {
                InputSpec::DfsFile {
                    name: format!("{name}-input"),
                    bytes: r.maps as u64 * HDFS_BLOCK,
                }
            } else {
                InputSpec::None { maps: r.maps }
            };
            JobSpec {
                io_weight: r.weight,
                arrival: SimDuration::from_secs_f64(r.at_secs),
                input,
                map_output_ratio: r.shuffle_ratio,
                gen_bytes_per_map: 8 * MIB,
                map_cpu_rate: r.map_cpu_rate,
                reduces: r.reduces,
                reduce_output_ratio: r.output_ratio,
                reduce_cpu_rate: r.reduce_cpu_rate,
                merge_threshold: 512 * MIB,
                tenant: Some(r.tenant.clone()),
                ..JobSpec::named(&name)
            }
        })
        .collect()
}

/// Exports job specs as trace records — the inverse of [`to_specs`] up
/// to the format's canonicalization: job/file names are regenerated by
/// the replay, DFS input sizes round to whole HDFS blocks, and
/// generator-job output volume / merge thresholds take the trace
/// defaults. A sampled [`crate::MixConfig`] can thus be exported with
/// [`emit`], versioned or hand-edited, and replayed.
pub fn from_specs(specs: &[JobSpec]) -> Vec<TraceRecord> {
    specs
        .iter()
        .map(|s| {
            let (maps, dfs_input) = match &s.input {
                InputSpec::DfsFile { bytes, .. } => {
                    ((bytes.div_ceil(HDFS_BLOCK)).max(1) as u32, true)
                }
                // Chained stages have no standalone input; export them as
                // single-block DFS reads (the format has no workflow
                // linkage).
                InputSpec::Chained => (1, true),
                InputSpec::None { maps } => (*maps, false),
            };
            TraceRecord {
                at_secs: s.arrival.as_secs_f64(),
                tenant: s.tenant.clone().unwrap_or_else(|| "trace".to_string()),
                weight: s.io_weight,
                maps,
                shuffle_ratio: s.map_output_ratio,
                output_ratio: s.reduce_output_ratio,
                reduces: s.reduces,
                map_cpu_rate: s.map_cpu_rate,
                reduce_cpu_rate: s.reduce_cpu_rate,
                dfs_input,
            }
        })
        .collect()
}

/// The arrival offsets of a record set, in file order — feed to
/// [`crate::arrival::ArrivalProcess::Replay`].
pub fn arrivals(records: &[TraceRecord]) -> Vec<SimDuration> {
    records
        .iter()
        .map(|r| SimDuration::from_secs_f64(r.at_secs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# a comment, then a blank line

{"at": 0.5, "tenant": "etl", "weight": 4.0, "maps": 8, "shuffle_ratio": 1.5, "output_ratio": 0.1, "reduces": 4}
{"at": 0.25, "tenant": "faas", "input": "gen"}
{"at": 2.0}
"#;

    #[test]
    fn parses_defaults_comments_and_blanks() {
        let recs = parse(SAMPLE).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].tenant, "etl");
        assert_eq!(recs[0].reduces, 4);
        assert!(!recs[1].dfs_input);
        assert_eq!(recs[1].weight, 1.0);
        assert_eq!(recs[2].tenant, "trace");
        assert_eq!(recs[2].maps, 1);
    }

    #[test]
    fn emit_parse_round_trips_bit_exactly() {
        let recs = parse(SAMPLE).unwrap();
        let text = emit(&recs);
        assert_eq!(parse(&text).unwrap(), recs);
        // Awkward floats survive too.
        let r = TraceRecord {
            at_secs: 0.1 + 0.2,
            weight: 1.0 / 3.0,
            map_cpu_rate: 6.6e7,
            ..TraceRecord::default()
        };
        assert_eq!(parse(&emit(std::slice::from_ref(&r))).unwrap(), vec![r]);
    }

    #[test]
    fn to_specs_sorts_by_arrival_and_names_uniquely() {
        let specs = to_specs(&parse(SAMPLE).unwrap());
        assert_eq!(specs[0].tenant.as_deref(), Some("faas"));
        assert_eq!(specs[0].name, "faas-t0");
        assert_eq!(specs[1].name, "etl-t1");
        assert_eq!(specs[2].name, "trace-t2");
        for w in specs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        assert!(matches!(
            specs[1].input,
            InputSpec::DfsFile { bytes, .. } if bytes == 8 * HDFS_BLOCK
        ));
        assert!(matches!(specs[0].input, InputSpec::None { maps: 1 }));
    }

    #[test]
    fn rejects_unknown_keys_and_missing_at() {
        let e = parse(r#"{"at": 1.0, "shufle_ratio": 2.0}"#).unwrap_err();
        assert!(e.contains("unknown key"), "{e}");
        let e = parse(r#"{"tenant": "x"}"#).unwrap_err();
        assert!(e.contains("missing required key"), "{e}");
        let e = parse(r#"{"at": -1.0}"#).unwrap_err();
        assert!(e.contains("finite offset"), "{e}");
        let e = parse(r#"{"at": 1.0, "maps": 2.5}"#).unwrap_err();
        assert!(e.contains("non-negative integer"), "{e}");
        let e = parse(r#"{"at": 1.0} junk"#).unwrap_err();
        assert!(e.contains("trailing"), "{e}");
    }

    #[test]
    fn from_specs_inverts_to_specs_on_replay_fields() {
        let recs = to_specs(&parse(SAMPLE).unwrap());
        let back = from_specs(&recs);
        // Exporting a lowered trace and re-lowering it reproduces the
        // same simulation inputs (names are canonical either way).
        let again = to_specs(&back);
        assert_eq!(recs.len(), again.len());
        for (a, b) in recs.iter().zip(&again) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.tenant, b.tenant);
            assert_eq!(a.io_weight, b.io_weight);
            assert_eq!(a.input, b.input);
            assert_eq!(a.map_output_ratio, b.map_output_ratio);
            assert_eq!(a.reduce_output_ratio, b.reduce_output_ratio);
            assert_eq!(a.reduces, b.reduces);
            assert_eq!(a.map_cpu_rate, b.map_cpu_rate);
        }
        // The export emits parseable JSONL.
        assert_eq!(parse(&emit(&back)).unwrap(), back);
    }

    #[test]
    fn arrivals_feed_replay() {
        let recs = parse(SAMPLE).unwrap();
        let offs = arrivals(&recs);
        assert_eq!(offs.len(), 3);
        let p = crate::arrival::ArrivalProcess::Replay(offs);
        let sampled = p.sample(&mut ibis_simcore::rng::SimRng::new(0), 3);
        assert_eq!(sampled[0], SimDuration::from_secs_f64(0.25));
    }
}
