//! End-to-end runs of the one-shot workloads: closed-loop passes of
//! `manager::run_threaded` over the workload's input, pulled by the
//! engine's capture loop from one generator iterator.

use crate::clock::{peak_rss_mb, process_cpu_ns};
use crate::gen::{OneShot, Reference, Replay, CHURN_QUERY, Q100_PORTS};
use crate::stats::{beyond, max, median, min, quantile, IndexSamples};
use crate::{Checks, Metrics};
use gigascope::manager::{run_threaded, ThreadedOutput};
use gigascope::{Tuple, Value};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Packets per generator slice: the one-shot workloads' "epoch" is the
/// time the capture loop takes to pull one slice. Small enough that
/// every input has more than 100 slices, so the p90 over slices has at
/// least ten beyond it.
const SLICE: u64 = 2_048;
/// Set-ups timed before each pass (spread over the run, so a few
/// seconds' phase of the host does not set them all); `setup_s` is their
/// median.
const SETUPS_PER_PASS: usize = 4;
/// Churn-query registrations timed per pass.
const REGISTERS_PER_PASS: usize = 11;
/// Fewest timed passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// The generator: replays the input and stamps the wall clock every
/// `SLICE` packets (once per slice, never per packet).
struct Sliced<'a> {
    inner: Replay<'a>,
    pulled: u64,
    marks: Vec<Instant>,
}

impl Iterator for Sliced<'_> {
    type Item = gs_packet::CapPacket;

    fn next(&mut self) -> Option<Self::Item> {
        let p = self.inner.next()?;
        if self.pulled.is_multiple_of(SLICE) {
            self.marks.push(Instant::now());
        }
        self.pulled += 1;
        Some(p)
    }
}

/// Rows rendered and sorted: equality of two of these is multiset
/// equality of the rows.
pub fn norm(rows: &[Tuple]) -> Vec<String> {
    let mut v: Vec<String> = rows.iter().map(|t| format!("{:?}", t.values())).collect();
    v.sort();
    v
}

fn uint(v: &Value) -> u64 {
    v.as_uint().expect("unsigned column")
}

/// Check one pass's output against the workload's reference.
fn check(
    w: &OneShot,
    out: &ThreadedOutput,
    sync_rows: &HashMap<String, Vec<String>>,
    checks: &mut Checks,
) {
    match &w.reference {
        Reference::E2 { tcp_per_link } => {
            for (link, stream) in ["app0", "app1"].iter().enumerate() {
                let total: u64 = out.stream(stream).iter().map(|t| uint(t.get(2))).sum();
                checks.check(total == tcp_per_link[link], || {
                    format!(
                        "{stream}: count(*) total {total} != {} TCP packets",
                        tcp_per_link[link]
                    )
                });
                checks.check(norm(out.stream(stream)) == sync_rows[*stream], || {
                    format!("{stream}: threaded rows differ from run_capture")
                });
            }
        }
        Reference::Q100 { per_port } => {
            for i in 0..100 {
                let port = Q100_PORTS[i % Q100_PORTS.len()];
                let got = out.counter(&format!("lfta:q{i}"), "tuples_out");
                checks.check(got == Some(per_port[&port]), || {
                    format!(
                        "q{i}: tuples_out {got:?} != {} TCP packets to {port}",
                        per_port[&port]
                    )
                });
            }
        }
        Reference::Merge {
            http_per_sec,
            http_truth,
            per_src,
            ip_pkts,
        } => {
            let http: HashMap<u64, u64> = out
                .stream("http")
                .iter()
                .map(|t| (uint(t.get(0)), uint(t.get(1))))
                .collect();
            checks.check(&http == http_per_sec, || {
                "http: per-second counts differ".into()
            });
            let total: u64 = http.values().sum();
            checks.check(total == *http_truth, || {
                format!("http: {total} matches != netgen ground truth {http_truth}")
            });
            let mut flows: HashMap<(u64, u32), u64> = HashMap::new();
            for t in out.stream("flows") {
                let Value::Ip(src) = t.get(1) else {
                    panic!("flows.srcIP is an IP column");
                };
                *flows.entry((uint(t.get(0)), *src)).or_default() += uint(t.get(2));
            }
            checks.check(&flows == per_src, || {
                "flows: per-(second, srcIP) counts differ".into()
            });
            let total: u64 = flows.values().sum();
            checks.check(total == *ip_pkts, || {
                format!("flows: {total} != {ip_pkts} IP packets")
            });
        }
    }
}

/// Time repeated passes for `seconds` and report the end-to-end metrics.
pub fn run(w: &OneShot, seconds: f64, checks: &mut Checks) -> Metrics {
    let mut gs = w.system();
    let subs: Vec<&str> = w.subs.iter().map(String::as_str).collect();
    let sync_rows: HashMap<String, Vec<String>> = if matches!(w.reference, Reference::E2 { .. }) {
        let out = gs.run_capture(w.replay(), &subs).expect("synchronous run");
        subs.iter()
            .map(|s| (s.to_string(), norm(out.stream(s))))
            .collect()
    } else {
        HashMap::new()
    };
    // One untimed pass: the first run after input generation is an
    // outlier (page faults, cold allocator).
    let out = run_threaded(&gs, w.replay(), &subs).expect("threaded run");
    check(w, &out, &sync_rows, checks);
    drop(out);

    // Throughput and CPU per packet are reported for the run's best
    // pass, and each slice and registration for its best pass: the
    // host's slow phases only ever slow a pass down, so the fastest of a
    // run's passes is the program's cost with the least of them in it,
    // while a slower program slows every pass. Slices are not added up
    // into a throughput: the pipeline's threads lag the capture loop by
    // up to a queue, so a slice's time and CPU do not hold its own work,
    // and only a whole pass ends drained.
    let (mut rate, mut cpu) = (Vec::new(), Vec::new());
    let (mut slices, mut register) = (IndexSamples::default(), IndexSamples::default());
    let mut setup = Vec::new();
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs_f64(seconds) || rate.len() < MIN_PASSES {
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            let fresh = w.system();
            setup.push(t.elapsed().as_secs_f64());
            drop(fresh);
        }
        let regs: Vec<f64> = (0..REGISTERS_PER_PASS)
            .map(|_| {
                let t = Instant::now();
                gs.add_program(CHURN_QUERY).expect("churn query registers");
                let ms = t.elapsed().as_secs_f64() * 1e3;
                gs.remove_program("churn").expect("churn query unregisters");
                ms
            })
            .collect();
        register.add(&regs);

        let mut gen = Sliced {
            inner: w.replay(),
            pulled: 0,
            marks: Vec::new(),
        };
        let c0 = process_cpu_ns();
        let t0 = Instant::now();
        let out = run_threaded(&gs, &mut gen, &subs).expect("threaded run");
        rate.push(out.packets as f64 / t0.elapsed().as_secs_f64());
        cpu.push((process_cpu_ns() - c0) as f64 / out.packets.max(1) as f64);
        checks.check(out.packets == w.packets(), || {
            format!("pass consumed {} of {} packets", out.packets, w.packets())
        });
        let times: Vec<f64> = gen
            .marks
            .windows(2)
            .map(|m| (m[1] - m[0]).as_secs_f64() * 1e3)
            .collect();
        slices.add(&times);
        check(w, &out, &sync_rows, checks);
    }
    let (slices, register) = (slices.mins(), register.mins());
    println!(
        "passes {} of {} packets; {} slices of {SLICE} packets, each its best over the \
         passes ({} beyond p90); {} registrations per pass; setups {}",
        rate.len(),
        w.packets(),
        slices.len(),
        beyond(&slices, 0.9),
        register.len(),
        setup.len()
    );
    let mut m = Metrics::default();
    m.put("pkts_per_s", max(&rate), "pkt/s");
    m.put("cpu_ns_per_pkt", min(&cpu), "ns/pkt");
    m.put("epoch_ms_p50", median(&slices), "ms");
    m.put("epoch_ms_p90", quantile(&slices, 0.9), "ms");
    m.put("register_ms_p50", median(&register), "ms");
    m.put("setup_s", median(&setup), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m
}
