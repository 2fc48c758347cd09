//! Per-request-type counters of the server: request and error counts,
//! byte traffic, and a bounded latency reservoir per operation from which
//! `stats` reports p50/p95/p99.

use std::collections::HashMap;

use crate::json::{obj, Json};

/// Latency reservoir size per operation. A ring keeps `stats` O(1) in
/// request count and the percentiles representative of recent traffic.
const RESERVOIR: usize = 512;

/// Counters of one request type.
#[derive(Default)]
pub struct OpStats {
    /// Requests handled (including failed ones).
    pub count: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Request payload bytes.
    pub bytes_in: u64,
    /// Response payload bytes.
    pub bytes_out: u64,
    lat_us: Vec<u64>,
    next: usize,
}

impl OpStats {
    fn push_latency(&mut self, us: u64) {
        if self.lat_us.len() < RESERVOIR {
            self.lat_us.push(us);
        } else {
            self.lat_us[self.next] = us;
            self.next = (self.next + 1) % RESERVOIR;
        }
    }

    /// `(p50, p95, p99)` microseconds over the reservoir (zeros when
    /// empty). A slow request shows up at p99 long before p95.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        if self.lat_us.is_empty() {
            return (0, 0, 0);
        }
        let mut sorted = self.lat_us.clone();
        sorted.sort_unstable();
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        (at(0.50), at(0.95), at(0.99))
    }
}

/// Server-wide counters, shared behind a mutex.
#[derive(Default)]
pub struct Metrics {
    ops: HashMap<String, OpStats>,
    /// Sessions accepted.
    pub sessions: u64,
    /// Connections refused because the server was at capacity.
    pub overloaded: u64,
    /// Analyze requests' units skipped by the incremental cache.
    pub analyze_skipped: u64,
    /// Analyze requests' units actually (re)analyzed.
    pub analyze_analyzed: u64,
    /// Connections refused because their tenant was at its session quota.
    pub tenant_rejected: u64,
}

impl Metrics {
    /// Records one handled request.
    pub fn record(&mut self, op: &str, bytes_in: u64, bytes_out: u64, us: u64, ok: bool) {
        let s = self.ops.entry(op.to_string()).or_default();
        s.count += 1;
        if !ok {
            s.errors += 1;
        }
        s.bytes_in += bytes_in;
        s.bytes_out += bytes_out;
        s.push_latency(us);
    }

    /// The counters of one op, if any requests arrived.
    pub fn op(&self, op: &str) -> Option<&OpStats> {
        self.ops.get(op)
    }

    /// Renders the whole table for the `stats` response.
    pub fn to_json(&self) -> Json {
        let mut ops: Vec<(&String, &OpStats)> = self.ops.iter().collect();
        ops.sort_by_key(|(k, _)| k.as_str());
        let ops = Json::Obj(
            ops.into_iter()
                .map(|(k, s)| {
                    let (p50, p95, p99) = s.percentiles();
                    (
                        k.clone(),
                        obj([
                            ("count", Json::u64(s.count)),
                            ("errors", Json::u64(s.errors)),
                            ("bytes_in", Json::u64(s.bytes_in)),
                            ("bytes_out", Json::u64(s.bytes_out)),
                            ("p50_us", Json::u64(p50)),
                            ("p95_us", Json::u64(p95)),
                            ("p99_us", Json::u64(p99)),
                        ]),
                    )
                })
                .collect(),
        );
        obj([
            ("sessions", Json::u64(self.sessions)),
            ("overloaded", Json::u64(self.overloaded)),
            ("analyze_skipped", Json::u64(self.analyze_skipped)),
            ("analyze_analyzed", Json::u64(self.analyze_analyzed)),
            ("tenant_rejected", Json::u64(self.tenant_rejected)),
            ("ops", ops),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_render() {
        let mut m = Metrics::default();
        for us in 1..=100u64 {
            m.record("run", 10, 20, us, true);
        }
        m.record("run", 1, 1, 1000, false);
        let s = m.op("run").unwrap();
        assert_eq!(s.count, 101);
        assert_eq!(s.errors, 1);
        let (p50, p95, p99) = s.percentiles();
        assert!((45..=55).contains(&p50), "p50 {p50}");
        assert!(p95 >= 90, "p95 {p95}");
        assert!(p99 >= p95, "p99 {p99} below p95 {p95}");
        // 101 samples: rank round(100 * .99) = 99, the second-largest —
        // one straggler away from the 1000 µs outlier.
        assert_eq!(p99, 100);
        let j = m.to_json();
        let run = j.get("ops").unwrap().get("run").unwrap();
        assert_eq!(run.get("count").unwrap().as_u64(), Some(101));
        assert_eq!(run.get("p99_us").unwrap().as_u64(), Some(100));
    }

    #[test]
    fn reservoir_is_bounded() {
        let mut m = Metrics::default();
        for i in 0..10_000u64 {
            m.record("x", 0, 0, i, true);
        }
        assert!(m.op("x").unwrap().lat_us.len() <= RESERVOIR);
    }
}
