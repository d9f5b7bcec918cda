//! The metric registry: every name the benchmark can print, with unit and
//! direction, in the order `BENCHMARK.json` lists them — plus the one-line
//! JSON result each run ends with and its parser (the suite mode reads its
//! children's results back with it).

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: share of the parent's median by which the
    /// metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the runtime sees. Every workload reports every one of
/// these (the op a workload counts is stated in its `why`). A bound covers
/// every workload, so it is sized by the noisiest: the reference host's
/// clock moves between 2.1 and 2.7 GHz, and over ten runs of one commit a
/// CPU-bound number spreads 3–20 % (README, "First recorded numbers").
pub const END_TO_END: &[Def] = &[
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("lat_p50_us", "us", Lower, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("peak_rss_mb", "mb", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single-layer numbers, measured from outside the runtime: counter deltas
/// over the timed window, spans of the traced trial, unit-cost probes. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[Def] = &[
    // Tail latency of the op (host-noise-bound on the idle workloads).
    layer("lat_tail_us", "us", Lower),
    layer("lat_tail_pct", "%", Higher),
    layer("lat_samples", "count", Higher),
    // Counter deltas of Runtime::stats().
    layer("core.sched.steals_per_kop", "count", Lower),
    layer("core.sched.unparks_per_kop", "count", Lower),
    layer("core.sched.worker_balance", "share", Higher),
    layer("core.preempt.preemptions_per_s", "1/s", Lower),
    layer("core.preempt.timer_ticks_per_s", "1/s", Lower),
    layer("core.preempt.useful_share", "share", Higher),
    layer("core.preempt.filtered_share", "share", Lower),
    layer("core.preempt.tick_elisions_per_s", "1/s", Lower),
    layer("core.preempt.tick_rearms_per_s", "1/s", Lower),
    layer("core.preempt.deferred_ticks", "count", Lower),
    layer("core.preempt.stale_ticks", "count", Lower),
    layer("core.preempt.timer_overruns", "count", Lower),
    layer("core.klt.switches_per_s", "1/s", Lower),
    layer("core.klt.captive_resumes_per_s", "1/s", Lower),
    layer("core.klt.misses", "count", Lower),
    layer("core.klt.created", "count", Lower),
    layer("core.klt.identity_changes", "count", Lower),
    layer("io.reactor.polls_per_req", "count", Lower),
    layer("io.reactor.parks_per_req", "count", Lower),
    layer("io.reactor.doorbells_per_req", "count", Lower),
    layer("io.reactor.cross_shard_wakes", "count", Lower),
    layer("io.reactor.fd_rebinds", "count", Lower),
    layer("io.bufpool.hit_share", "share", Higher),
    layer("sync.mcs.handoffs_per_op", "count", Lower),
    layer("sync.mcs.suspends_per_op", "count", Lower),
    layer("future.task.unparks_per_req", "count", Lower),
    // getrusage over the timed window.
    layer("proc.cpu_user_s", "s", Lower),
    layer("proc.cpu_sys_s", "s", Lower),
    layer("proc.sys_share", "share", Lower),
    layer("proc.vol_cs_per_kop", "count", Lower),
    layer("proc.invol_cs_per_kop", "count", Lower),
    layer("proc.minor_faults_per_kop", "count", Lower),
    // The open-loop generator's own behaviour.
    layer("gen.req_per_s", "1/s", Higher),
    layer("gen.lateness_p99_us", "us", Lower),
    layer("gen.over_limit_share", "share", Lower),
    layer("gen.backlog_max", "count", Lower),
    layer("gen.backlog_growth", "count", Lower),
    layer("io.net.rtt_p50_us", "us", Lower),
    layer("io.anet.rtt_p50_us", "us", Lower),
    // Spans of the traced trial (medians).
    layer("core.thread.spawn_ns", "ns", Lower),
    layer("core.thread.join_wait_ns", "ns", Lower),
    layer("core.sched.start_delay_ns", "ns", Lower),
    layer("io.net.read_ns", "ns", Lower),
    layer("io.net.write_ns", "ns", Lower),
    layer("io.anet.read_ns", "ns", Lower),
    layer("io.anet.write_ns", "ns", Lower),
    layer("io.wake_path_us", "us", Lower),
    layer("handler.turn_us", "us", Lower),
    layer("core.preempt.gap_p50_us", "us", Lower),
    layer("core.preempt.cost_per_preempt_us", "us", Lower),
    layer("sync.mutex.lock_wait_ns", "ns", Lower),
    layer("sync.mcs.lock_wait_ns", "ns", Lower),
    layer("sync.channel.send_ns", "ns", Lower),
    layer("sync.channel.recv_wait_ns", "ns", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.spans", "count", Higher),
    layer("trace.dropped", "count", Lower),
    // Unit-cost probes (the ROADMAP 2c ladder), public functions only.
    layer("arch.context.switch_ns", "ns", Lower),
    layer("arch.stack.alloc_ns", "ns", Lower),
    layer("core.pool.push_pop_ns", "ns", Lower),
    layer("core.pool.steal_ns", "ns", Lower),
    layer("core.yield_ns", "ns", Lower),
    layer("core.thread.spawn_join_ns", "ns", Lower),
    layer("core.preempt.signal_yield_rt_ns", "ns", Lower),
    layer("core.preempt.useless_tick_ns", "ns", Lower),
    layer("sys.timer.arm_ns", "ns", Lower),
    layer("core.klt.switch_rt_ns", "ns", Lower),
    layer("sys.futex.wake_ns", "ns", Lower),
    layer("io.reactor.wake_ns", "ns", Lower),
    layer("io.time.sleep_overshoot_us", "us", Lower),
    layer("future.task.spawn_join_ns", "ns", Lower),
    layer("future.task.waker_hop_ns", "ns", Lower),
    layer("future.blocking.rt_ns", "ns", Lower),
    layer("sync.mutex.uncontended_ns", "ns", Lower),
    layer("sync.mcs.uncontended_ns", "ns", Lower),
    // Mechanism guards that did not hold (see `guards`).
    layer("guard.failed", "count", Lower),
];

pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Named values of one run; only registered names can be set.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("metric {name} is not in the registry"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Set `name` to the `p` percentile of the ascending `sorted_ns`, in
    /// units of `ns_per_unit` ns (1 for ns, 1000 for µs). No samples, no value.
    pub fn set_percentile(&mut self, name: &str, sorted_ns: &[u64], p: f64, ns_per_unit: f64) {
        if !sorted_ns.is_empty() {
            self.set(
                name,
                crate::stats::percentile(sorted_ns, p) as f64 / ns_per_unit,
            );
        }
    }

    /// Take every value of `other`, overwriting what is already here.
    pub fn extend(&mut self, other: &Values) {
        self.0.extend(other.0.iter().map(|(k, v)| (*k, *v)));
    }
}

/// The result one run prints as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

impl ResultLine {
    /// Every metric of `defs`, in registry order; correct iff nothing failed.
    /// An end-to-end metric that was never set is a bug in the workload; a
    /// per-layer one reads 0.
    pub fn build(
        attempted: u64,
        failed: u64,
        defs: &[Def],
        values: &Values,
        all_required: bool,
    ) -> ResultLine {
        let metrics = defs
            .iter()
            .map(|d| {
                let v = match values.get(d.name) {
                    Some(v) => v,
                    None if all_required => panic!("end-to-end metric {} was not measured", d.name),
                    None => 0.0,
                };
                (d.name.to_string(), v, d.unit.to_string())
            })
            .collect();
        ResultLine {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        }
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parse a line written by [`ResultLine::to_json`].
    pub fn parse(line: &str) -> Option<ResultLine> {
        let field = |key: &str| {
            let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
            let rest = &line[at..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let correct = field("correct")?.parse().ok()?;
        let attempted = field("attempted")?.parse().ok()?;
        let failed = field("failed")?.parse().ok()?;
        let body = &line[line.find("\"metrics\": {")? + 12..];
        let mut metrics = Vec::new();
        for entry in body.split("\"}").filter(|e| e.contains("\"value\": ")) {
            let name = entry.split('"').nth(1)?;
            let value = entry.split("\"value\": ").nth(1)?.split(',').next()?;
            let unit = entry.rsplit('"').next()?;
            metrics.push((name.to_string(), value.parse().ok()?, unit.to_string()));
        }
        Some(ResultLine {
            correct,
            attempted,
            failed,
            metrics,
        })
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name), "bad name {}", d.name);
            assert!(ok_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest);
    }

    /// `BENCHMARK.json` is written by hand; it has to list what the binary
    /// emits, in the same words.
    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| {
            let at = text
                .find(&format!("\"{key}\""))
                .unwrap_or_else(|| panic!("no {key}"));
            let open = at + text[at..].find('[').expect("list");
            &text[open..open + text[open..].find(']').expect("list end")]
        };
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<String> = section(key)
                .split("\"name\"")
                .skip(1)
                .map(|e| e.split('"').nth(1).expect("name value").to_string())
                .collect();
            let ours: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(listed, ours, "{key} differs from the registry");
            for d in defs {
                let entry = section(key)
                    .split("\"name\"")
                    .find(|e| e.split('"').nth(1) == Some(d.name))
                    .expect("entry");
                assert!(
                    entry.contains(&format!("\"unit\": \"{}\"", d.unit)),
                    "unit of {}",
                    d.name
                );
                let better = if d.better == Higher {
                    "higher"
                } else {
                    "lower"
                };
                assert!(
                    entry.contains(&format!("\"better\": \"{better}\"")),
                    "direction of {}",
                    d.name
                );
                if key == "end_to_end" {
                    assert!(
                        entry.contains(&format!("\"bound\": {}", d.bound)),
                        "bound of {}",
                        d.name
                    );
                }
            }
        }
        let workloads: Vec<&str> = section("workloads")
            .split("\"name\"")
            .skip(1)
            .map(|e| e.split('"').nth(1).expect("name value"))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn result_line_round_trips() {
        let mut v = Values::default();
        for d in END_TO_END {
            v.set(d.name, 1.5);
        }
        v.set("ops_per_s", 123456.789012);
        let r = ResultLine::build(1000, 3, END_TO_END, &v, true);
        let line = r.to_json();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1000, \"failed\": 3, \"metrics\": {\"ops_per_s\": {\"value\": 123456.789012, \"unit\": \"1/s\"}"));
        assert_eq!(ResultLine::parse(&line), Some(r));
    }

    #[test]
    fn unmeasured_layers_read_zero_and_unknown_names_are_refused() {
        let r = ResultLine::build(1, 0, PER_LAYER, &Values::default(), false);
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        assert!(r.metrics.iter().all(|m| m.1 == 0.0));
        assert!(std::panic::catch_unwind(|| Values::default().set("no.such.metric", 1.0)).is_err());
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_end_to_end_metric_is_a_bug() {
        ResultLine::build(1, 0, END_TO_END, &Values::default(), true);
    }
}
