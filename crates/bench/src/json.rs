//! Machine-readable benchmark output (the `--json <path>` flag).
//!
//! Each experiment that measures whole decomposition runs pushes one
//! [`JsonRecord`] per (algorithm, graph) cell into a shared sink; the
//! runner serializes the collected records as a JSON array so future
//! sessions can track a `BENCH_*.json` perf trajectory without scraping
//! the human-readable tables. Serialization is hand-rolled — the
//! workspace intentionally has no serde route — but emits strict JSON.

use std::io::{self, Write};
use std::time::Duration;

use bitruss_core::Metrics;

/// One measured decomposition run.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonRecord {
    /// Experiment id the record came from (e.g. `"fig9"`, `"parallel"`).
    pub experiment: String,
    /// Algorithm display name (`Algorithm::name`), e.g. `"BU++/P"`.
    pub algorithm: String,
    /// Dataset / graph name.
    pub graph: String,
    /// Worker threads the run was configured with (1 = sequential).
    pub threads: usize,
    /// Counting-phase wall time in milliseconds.
    pub counting_ms: f64,
    /// Index-construction wall time in milliseconds.
    pub index_ms: f64,
    /// Peeling wall time in milliseconds (for the two-phase engine,
    /// the per-band peel only).
    pub peeling_ms: f64,
    /// Band-partitioning wall time in milliseconds (two-phase engine
    /// only; 0.0 for every other algorithm and experiment).
    pub partition_ms: f64,
    /// Stitch wall time in milliseconds (two-phase engine only; 0.0
    /// otherwise).
    pub stitch_ms: f64,
    /// Total wall time in milliseconds (all phases).
    pub total_ms: f64,
    /// Butterfly-support updates performed while peeling.
    pub support_updates: u64,
    /// Peak BE-Index footprint in bytes (0 for index-free algorithms).
    pub peak_index_bytes: usize,
}

impl JsonRecord {
    /// Builds a record from a run's [`Metrics`].
    pub fn from_metrics(
        experiment: &str,
        algorithm: &str,
        graph: &str,
        threads: usize,
        m: &Metrics,
    ) -> JsonRecord {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        JsonRecord {
            experiment: experiment.to_string(),
            algorithm: algorithm.to_string(),
            graph: graph.to_string(),
            threads,
            counting_ms: ms(m.counting_time),
            index_ms: ms(m.index_time),
            peeling_ms: ms(m.peeling_time),
            partition_ms: ms(m.partition_time),
            stitch_ms: ms(m.stitch_time),
            total_ms: ms(m.total_time()),
            support_updates: m.support_updates,
            peak_index_bytes: m.peak_index_bytes,
        }
    }

    /// Builds a record for a measured *query-serving* run (the `query`
    /// experiment). The decomposition-phase fields are repurposed with a
    /// fixed mapping so the JSON schema stays identical across
    /// experiments: `total_ms` = batch wall time, `index_ms` = one-off
    /// index/preparation time (0 for the scan engine), `support_updates`
    /// = number of queries served, `peak_index_bytes` = resident bytes
    /// of the query structure; the remaining phase times are 0.
    pub fn query(
        algorithm: &str,
        graph: &str,
        queries: u64,
        batch: Duration,
        prep: Duration,
        resident_bytes: usize,
    ) -> JsonRecord {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        JsonRecord {
            experiment: "query".to_string(),
            algorithm: algorithm.to_string(),
            graph: graph.to_string(),
            threads: 1,
            counting_ms: 0.0,
            index_ms: ms(prep),
            peeling_ms: 0.0,
            partition_ms: 0.0,
            stitch_ms: 0.0,
            total_ms: ms(batch),
            support_updates: queries,
            peak_index_bytes: resident_bytes,
        }
    }

    /// Builds a record for a measured *maintenance* run (the
    /// `maintenance` experiment). The schema stays identical across
    /// experiments via a fixed mapping: `total_ms` = wall time of
    /// applying the batch (incremental) or re-decomposing (recompute),
    /// `support_updates` = support updates performed, `peak_index_bytes`
    /// = affected (re-peeled) edges, `threads` = batch size in
    /// operations; the phase times carry the analyze/rebuild/re-peel
    /// split for the incremental engine and the usual
    /// counting/index/peeling split for recompute.
    #[allow(clippy::too_many_arguments)] // flat record, one field each
    pub fn maintenance(
        algorithm: &str,
        graph: &str,
        batch_ops: usize,
        analyze: Duration,
        rebuild: Duration,
        peel: Duration,
        total: Duration,
        support_updates: u64,
        affected_edges: u64,
    ) -> JsonRecord {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        JsonRecord {
            experiment: "maintenance".to_string(),
            algorithm: algorithm.to_string(),
            graph: graph.to_string(),
            threads: batch_ops,
            counting_ms: ms(analyze),
            index_ms: ms(rebuild),
            peeling_ms: ms(peel),
            partition_ms: 0.0,
            stitch_ms: 0.0,
            total_ms: ms(total),
            support_updates,
            peak_index_bytes: affected_edges as usize,
        }
    }

    /// Builds a record for a measured *serving* run (the `serve`
    /// experiment): concurrent readers querying a [`BitrussServer`]
    /// generation while a submitter streams update batches through the
    /// durable writer. The schema stays identical across experiments
    /// via a fixed mapping: `threads` = reader threads, `total_ms` =
    /// trial wall time, `counting_ms` = p50 query latency (ms),
    /// `index_ms` = p99 query latency (ms), `support_updates` = queries
    /// served, `peak_index_bytes` = update batches durably acked; the
    /// remaining phase times are 0.
    ///
    /// [`BitrussServer`]: bitruss_server::BitrussServer
    pub fn serve(
        graph: &str,
        readers: usize,
        wall: Duration,
        p50_us: u64,
        p99_us: u64,
        queries_served: u64,
        updates_acked: u64,
    ) -> JsonRecord {
        JsonRecord {
            experiment: "serve".to_string(),
            algorithm: "server".to_string(),
            graph: graph.to_string(),
            threads: readers,
            counting_ms: p50_us as f64 / 1e3,
            index_ms: p99_us as f64 / 1e3,
            peeling_ms: 0.0,
            partition_ms: 0.0,
            stitch_ms: 0.0,
            total_ms: wall.as_secs_f64() * 1e3,
            support_updates: queries_served,
            peak_index_bytes: updates_acked as usize,
        }
    }

    /// Builds a record for the *out-of-core* experiment (`ooc`): the
    /// same decomposition once fully in memory and once under a byte
    /// budget. The schema stays identical across experiments via a
    /// fixed mapping: the phase times and `support_updates` come
    /// straight from the run's [`Metrics`] (both paths execute the same
    /// phases), but `peak_index_bytes` = **peak resident working-set
    /// bytes** (`MemoryReport::peak_resident()` — graph + index + page
    /// cache together), not the index alone, because the working set is
    /// the quantity the budget governs; `algorithm` is `"in-memory"` or
    /// `"budgeted"`.
    pub fn ooc(algorithm: &str, graph: &str, m: &Metrics, peak_resident: usize) -> JsonRecord {
        let mut r = JsonRecord::from_metrics("ooc", algorithm, graph, 1, m);
        r.peak_index_bytes = peak_resident;
        r
    }

    /// Builds a record for one primitive of the `micro` experiment. The
    /// schema stays identical across experiments via a fixed mapping:
    /// `algorithm` = the primitive's name, `total_ms` = median wall time
    /// of one sample, `support_updates` = operations per sample (edges
    /// removed or queue entries drained); the remaining fields are 0.
    pub fn micro(primitive: &str, graph: &str, median: Duration, ops: u64) -> JsonRecord {
        JsonRecord {
            experiment: "micro".to_string(),
            algorithm: primitive.to_string(),
            graph: graph.to_string(),
            threads: 1,
            counting_ms: 0.0,
            index_ms: 0.0,
            peeling_ms: 0.0,
            partition_ms: 0.0,
            stitch_ms: 0.0,
            total_ms: median.as_secs_f64() * 1e3,
            support_updates: ops,
            peak_index_bytes: 0,
        }
    }

    fn write_to(&self, out: &mut dyn Write) -> io::Result<()> {
        write!(
            out,
            "{{\"experiment\":{},\"algorithm\":{},\"graph\":{},\"threads\":{},\
             \"counting_ms\":{:.3},\"index_ms\":{:.3},\"peeling_ms\":{:.3},\
             \"partition_ms\":{:.3},\"stitch_ms\":{:.3},\
             \"total_ms\":{:.3},\"support_updates\":{},\"peak_index_bytes\":{}}}",
            escape(&self.experiment),
            escape(&self.algorithm),
            escape(&self.graph),
            self.threads,
            self.counting_ms,
            self.index_ms,
            self.peeling_ms,
            self.partition_ms,
            self.stitch_ms,
            self.total_ms,
            self.support_updates,
            self.peak_index_bytes,
        )
    }
}

/// JSON string literal with the mandatory escapes.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes the records as a pretty-enough JSON array (one record per
/// line) into `out`.
pub fn write_records(out: &mut dyn Write, records: &[JsonRecord]) -> io::Result<()> {
    writeln!(out, "[")?;
    for (i, r) in records.iter().enumerate() {
        write!(out, "  ")?;
        r.write_to(out)?;
        writeln!(out, "{}", if i + 1 < records.len() { "," } else { "" })?;
    }
    writeln!(out, "]")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JsonRecord {
        JsonRecord {
            experiment: "parallel".into(),
            algorithm: "BU++/P".into(),
            graph: "Marvel".into(),
            threads: 4,
            counting_ms: 1.5,
            index_ms: 2.25,
            peeling_ms: 10.125,
            partition_ms: 0.5,
            stitch_ms: 0.25,
            total_ms: 14.625,
            support_updates: 42,
            peak_index_bytes: 1024,
        }
    }

    #[test]
    fn serializes_as_json_array() {
        let mut buf = Vec::new();
        write_records(&mut buf, &[sample(), sample()]).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("[\n"));
        assert!(s.trim_end().ends_with(']'));
        assert_eq!(s.matches("\"algorithm\":\"BU++/P\"").count(), 2);
        assert!(s.contains("\"support_updates\":42"));
        assert!(s.contains("\"peeling_ms\":10.125"));
        assert!(s.contains("\"partition_ms\":0.500"));
        assert!(s.contains("\"stitch_ms\":0.250"));
        // One comma between the two records, none after the last.
        assert_eq!(s.matches("},\n").count(), 1);
    }

    #[test]
    fn empty_sink_is_an_empty_array() {
        let mut buf = Vec::new();
        write_records(&mut buf, &[]).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "[\n]\n");
    }

    #[test]
    fn escaping() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn from_metrics_converts_durations() {
        let m = Metrics {
            counting_time: std::time::Duration::from_millis(10),
            index_time: std::time::Duration::from_millis(20),
            peeling_time: std::time::Duration::from_millis(30),
            partition_time: std::time::Duration::from_millis(4),
            stitch_time: std::time::Duration::from_millis(2),
            support_updates: 7,
            peak_index_bytes: 99,
            ..Metrics::default()
        };
        let r = JsonRecord::from_metrics("fig9", "BU++", "Condmat", 1, &m);
        assert_eq!(r.counting_ms, 10.0);
        assert_eq!(r.partition_ms, 4.0);
        assert_eq!(r.stitch_ms, 2.0);
        assert_eq!(r.total_ms, 66.0);
        assert_eq!(r.support_updates, 7);
        assert_eq!(r.peak_index_bytes, 99);
    }
}
