//! The traced run: per-layer metrics from the layer pipeline, plus the
//! layers the pipeline does not cover, each timed around its public call.

use crate::clock::thread_cpu_ns;
use crate::gen::{DaemonInput, OneShot, DAEMON_PROGRAM, DAEMON_STREAMS};
use crate::layers::{Pipeline, LAYERS};
use crate::oneshot::norm;
use crate::stats::median;
use crate::{Checks, Metrics};
use gigascope::manager::run_threaded;
use gigascope::server::wire::{decode_tuples, encode_tuples};
use gigascope::{Gigascope, Tuple};
use gs_packet::capture::LinkType;
use gs_packet::CapPacket;
use gs_runtime::durable::{DurableStats, DurableStore, RealDisk};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repetitions of the short per-call measurements (compile, build,
/// checkpoint); each metric is their median.
const REPS: usize = 7;
/// Rows per wire frame when timing the codec.
const FRAME_ROWS: usize = 1024;
/// Fewest traced passes per run.
const MIN_PASSES: usize = 2;

/// A workload as the layer model sees it.
pub enum Subject<'a> {
    /// A one-shot workload: one pass of its replayed input.
    OneShot(&'a OneShot),
    /// `daemon_carry`: its program over the concatenated epochs.
    Daemon(&'a DaemonInput),
}

impl<'a> Subject<'a> {
    fn input(&self) -> Box<dyn Iterator<Item = CapPacket> + 'a> {
        match *self {
            Subject::OneShot(w) => Box::new(w.replay()),
            Subject::Daemon(d) => Box::new(d.all()),
        }
    }

    fn system(&self) -> Gigascope {
        match self {
            Subject::OneShot(w) => w.system(),
            Subject::Daemon(d) => d.system(),
        }
    }

    /// A fresh system with the interfaces only, for timing compiles.
    fn bare(&self) -> Gigascope {
        match self {
            Subject::OneShot(w) => w.interfaces(),
            Subject::Daemon(_) => {
                let mut gs = Gigascope::new();
                gs.add_interface("eth0", 0, LinkType::Ethernet);
                gs
            }
        }
    }

    fn program(&self) -> &str {
        match self {
            Subject::OneShot(w) => &w.program,
            Subject::Daemon(_) => DAEMON_PROGRAM,
        }
    }

    /// Streams the workload subscribes to: the timed pipelines and the
    /// synchronous baseline collect these and no others, so they run the
    /// program the end-to-end run measures.
    fn subs(&self) -> Vec<String> {
        match self {
            Subject::OneShot(w) => w.subs.clone(),
            Subject::Daemon(_) => DAEMON_STREAMS.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Streams the untimed fidelity pass compares with the synchronous
    /// engine and feeds to the wire codec: every query's output, also
    /// where the workload subscribes to none (`q100_select`).
    fn fidelity_subs(&self) -> Vec<String> {
        match self {
            Subject::OneShot(w) => w.fidelity_subs.clone(),
            Subject::Daemon(_) => self.subs(),
        }
    }
}

fn sum_counter(out: &gigascope::manager::ThreadedOutput, prefix: &str, counter: &str) -> u64 {
    out.counters
        .iter()
        .filter(|r| r.node.starts_with(prefix) && r.counter == counter)
        .map(|r| r.value)
        .sum()
}

/// Time `f` on the wall clock, in ms.
fn wall_ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Run the layer model for `seconds` and report every per-layer metric.
pub fn run(s: &Subject<'_>, seconds: f64, tmp: &Path, checks: &mut Checks) -> Metrics {
    let gs = s.system();
    let sub_names = s.subs();
    let subs: Vec<&str> = sub_names.iter().map(String::as_str).collect();

    // The synchronous engine: the single-threaded baseline.
    let c0 = thread_cpu_ns();
    let sync = gs.run_capture(s.input(), &subs).expect("synchronous run");
    let sync_cpu = (thread_cpu_ns() - c0) as f64;
    let packets = sync.stats.packets as f64;
    drop(sync);

    // The fidelity check, untimed: a traced pipeline collecting every
    // compared stream yields `run_capture`'s rows. Its rows feed the wire
    // codec, and its work counts are what every timed pass must repeat.
    let fid_names = s.fidelity_subs();
    let fid_subs: Vec<&str> = fid_names.iter().map(String::as_str).collect();
    let sync = gs
        .run_capture(s.input(), &fid_subs)
        .expect("synchronous run");
    let mut fid = Pipeline::new(&gs, &fid_names, true);
    fid.run(s.input());
    fid.cut(&gs);
    fid.finish();
    for n in &fid_subs {
        checks.check(norm(&fid.outputs[*n]) == norm(sync.stream(n)), || {
            format!("{n}: layer pipeline rows differ from run_capture")
        });
    }
    drop(sync);
    let reference: HashMap<&str, Vec<String>> =
        subs.iter().map(|n| (*n, norm(&fid.outputs[*n]))).collect();
    let expect = fid.counts;
    let rows: Vec<(&str, &[Tuple])> = fid_subs
        .iter()
        .flat_map(|n| fid.outputs[*n].chunks(FRAME_ROWS).map(move |c| (*n, c)))
        .collect();
    let nrows: usize = rows.iter().map(|r| r.1.len()).sum();

    let compile: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut gs = s.bare();
            wall_ms(|| {
                gs.add_program(s.program()).expect("program compiles");
            })
        })
        .collect();
    let build: Vec<f64> = (0..REPS)
        .map(|_| {
            wall_ms(|| {
                run_threaded(&gs, std::iter::empty(), &subs).expect("empty run");
            })
        })
        .collect();
    let out = run_threaded(&gs, s.input(), &subs).expect("threaded run");
    let enq = sum_counter(&out, "queue:", "enqueued");
    let stall_frac = sum_counter(&out, "queue:", "stalls") as f64 / enq.max(1) as f64;
    // Batches to no consumer are counted apart from shipped ones.
    let edge_batches =
        sum_counter(&out, "edge:", "batches") + sum_counter(&out, "edge:", "flush_noconsumer");
    let fill_frac = sum_counter(&out, "edge:", "items") as f64 / (edge_batches.max(1) * 256) as f64;
    drop(out);

    let mut per: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut push = |k: &'static str, v: f64| per.entry(k).or_default().push(v);
    let mut sync_ns = vec![sync_cpu / packets];
    let start = Instant::now();
    let mut passes = 0;
    while start.elapsed() < Duration::from_secs_f64(seconds) || passes < MIN_PASSES {
        passes += 1;
        if passes > 1 {
            let c0 = thread_cpu_ns();
            let out = gs.run_capture(s.input(), &subs).expect("synchronous run");
            sync_ns.push((thread_cpu_ns() - c0) as f64 / out.stats.packets as f64);
        }
        let mut plain = Pipeline::new(&gs, &sub_names, false);
        let untraced = wall_ms(|| {
            plain.run(s.input());
            plain.finish();
        });
        drop(plain);

        let mut d = Pipeline::new(&gs, &sub_names, true);
        let mut run_ms = wall_ms(|| d.run(s.input()));
        let cut = d.cut(&gs);
        let mut held = 0;
        run_ms += wall_ms(|| held = d.finish());
        for n in &subs {
            checks.check(norm(&d.outputs[*n]) == reference[n], || {
                format!("{n}: timed pipeline rows differ from the fidelity pass")
            });
        }
        let c = d.counts;
        checks.check(
            (c.packets, c.lfta_out, c.hfta_out)
                == (expect.packets, expect.lfta_out, expect.hfta_out),
            || format!("timed pipeline counts {c:?} differ from the fidelity pass {expect:?}"),
        );
        let t = d.tracer.as_ref().expect("traced pipeline");
        let st = t.self_times();
        let at = |name: &str| st[LAYERS.iter().position(|l| *l == name).expect("layer")];
        let n = c.packets as f64;
        let (parse, dispatch, lfta) = (
            at("parse").0 as f64,
            at("prefilter").0 as f64,
            at("lfta").0 as f64,
        );
        let (flush, edge, transport, hfta) = (
            at("flush").0 as f64,
            at("edge").0 as f64,
            at("transport").0 as f64,
            at("hfta").0 as f64,
        );
        push("packet.parse_ns", parse / n);
        push("prefilter.dispatch_ns", dispatch / n);
        push("prefilter.self_ns", (dispatch - parse - lfta) / n);
        push("prefilter.hit_frac", c.hits as f64 / (n * c.slots as f64));
        push("lfta.push_ns", lfta / n);
        push("lfta.flush_ns", flush / n);
        push("lfta.out_per_pkt", c.lfta_out as f64 / n);
        push("lfta.dm_evict_per_pkt", d.dm_evictions() as f64 / n);
        push("edge.ns_per_pkt", edge / n);
        push("transport.batch_ns", transport / c.batches.max(1) as f64);
        push("hfta.push_ns_per_tuple", hfta / c.hfta_in.max(1) as f64);
        push(
            "hfta.out_per_in",
            c.hfta_out as f64 / c.hfta_in.max(1) as f64,
        );
        push(
            "layers.sum_ns_per_pkt",
            (dispatch + flush + edge + transport + hfta) / n,
        );
        // The side replays (parse, twin tails and flushes) are the
        // model's own extra work, not tracing cost.
        let replay_ms = (at("parse").1 + at("lfta").1 + at("twin_flush").1) as f64 / 1e6;
        push(
            "trace.overhead_frac",
            (run_ms - replay_ms - untraced) / untraced,
        );

        let groups = held.max(1) as f64;
        push("snapshot.groups", held as f64);
        push(
            "snapshot.capture_ns_per_group",
            cut.capture_cpu_ns as f64 / groups,
        );
        push(
            "snapshot.restore_ns_per_group",
            cut.restore_cpu_ns as f64 / groups,
        );
        let bytes: usize = cut.entries.values().map(Vec::len).sum();
        push("snapshot.bytes_per_group", bytes as f64 / groups);

        let dir = tmp.join(format!("durable-{passes}"));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut store, _) = DurableStore::open(
            &dir,
            Arc::new(RealDisk),
            3,
            Arc::new(DurableStats::default()),
        )
        .expect("durable store opens");
        let cursors: HashMap<String, u64> = HashMap::new();
        let mut ckpt = Vec::new();
        let mut log = Vec::new();
        for e in 0..REPS as u64 {
            ckpt.push(wall_ms(|| {
                store
                    .checkpoint(e + 1, &cut.entries, &cursors, &fid_names)
                    .expect("checkpoint");
            }));
            log.push(wall_ms(|| {
                store.log_markers(e, &fid_names).expect("marker log")
            }));
        }
        push("durable.checkpoint_ms", median(&ckpt));
        push("durable.log_ms", median(&log));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);

        let c0 = thread_cpu_ns();
        let frames: Vec<Vec<u8>> = rows.iter().map(|(n, r)| encode_tuples(n, 0, r)).collect();
        let enc = thread_cpu_ns() - c0;
        let c0 = thread_cpu_ns();
        let decoded: usize = frames
            .iter()
            .map(|f| decode_tuples(f).expect("frame decodes").rows.len())
            .sum();
        let dec = thread_cpu_ns() - c0;
        checks.check(decoded == nrows, || {
            format!("wire: {decoded} of {nrows} rows decoded")
        });
        push("wire.encode_ns_per_row", enc as f64 / nrows.max(1) as f64);
        push("wire.decode_ns_per_row", dec as f64 / nrows.max(1) as f64);
    }
    println!(
        "traced passes {passes} of {packets} packets; synchronous baselines {}",
        sync_ns.len()
    );

    let mut m = Metrics::default();
    let med = |k: &str| median(&per[k]);
    m.put("packet.parse_ns", med("packet.parse_ns"), "ns/pkt");
    m.put(
        "prefilter.dispatch_ns",
        med("prefilter.dispatch_ns"),
        "ns/pkt",
    );
    m.put("prefilter.self_ns", med("prefilter.self_ns"), "ns/pkt");
    m.put("prefilter.hit_frac", med("prefilter.hit_frac"), "ratio");
    m.put("lfta.push_ns", med("lfta.push_ns"), "ns/pkt");
    m.put("lfta.flush_ns", med("lfta.flush_ns"), "ns/pkt");
    m.put("lfta.out_per_pkt", med("lfta.out_per_pkt"), "tuples/pkt");
    m.put(
        "lfta.dm_evict_per_pkt",
        med("lfta.dm_evict_per_pkt"),
        "evictions/pkt",
    );
    m.put("edge.ns_per_pkt", med("edge.ns_per_pkt"), "ns/pkt");
    m.put("transport.batch_ns", med("transport.batch_ns"), "ns/batch");
    m.put("queue.stall_frac", stall_frac, "ratio");
    m.put("edge.fill_frac", fill_frac, "ratio");
    m.put(
        "hfta.push_ns_per_tuple",
        med("hfta.push_ns_per_tuple"),
        "ns/tuple",
    );
    m.put("hfta.out_per_in", med("hfta.out_per_in"), "ratio");
    m.put("engine.sync_ns_per_pkt", median(&sync_ns), "ns/pkt");
    m.put("manager.build_ms", median(&build), "ms");
    m.put("snapshot.groups", med("snapshot.groups"), "count");
    m.put(
        "snapshot.capture_ns_per_group",
        med("snapshot.capture_ns_per_group"),
        "ns/group",
    );
    m.put(
        "snapshot.restore_ns_per_group",
        med("snapshot.restore_ns_per_group"),
        "ns/group",
    );
    m.put(
        "snapshot.bytes_per_group",
        med("snapshot.bytes_per_group"),
        "B/group",
    );
    m.put("durable.checkpoint_ms", med("durable.checkpoint_ms"), "ms");
    m.put("durable.log_ms", med("durable.log_ms"), "ms");
    m.put(
        "wire.encode_ns_per_row",
        med("wire.encode_ns_per_row"),
        "ns/row",
    );
    m.put(
        "wire.decode_ns_per_row",
        med("wire.decode_ns_per_row"),
        "ns/row",
    );
    m.put("gsql.compile_ms", median(&compile), "ms");
    m.put(
        "layers.sum_ns_per_pkt",
        med("layers.sum_ns_per_pkt"),
        "ns/pkt",
    );
    m.put(
        "unattributed_ns_per_pkt",
        median(&sync_ns) - med("layers.sum_ns_per_pkt"),
        "ns/pkt",
    );
    m.put("trace.overhead_frac", med("trace.overhead_frac"), "ratio");
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn same_rows<'a>(
        gs: &Gigascope,
        input: &dyn Fn() -> Box<dyn Iterator<Item = CapPacket> + 'a>,
        subs: &[String],
    ) {
        let names: Vec<&str> = subs.iter().map(String::as_str).collect();
        let sync = gs.run_capture(input(), &names).expect("synchronous run");
        for traced in [false, true] {
            let mut d = Pipeline::new(gs, subs, traced);
            d.run(input());
            if traced {
                d.cut(gs);
            }
            d.finish();
            for n in &names {
                assert!(
                    !sync.stream(n).is_empty() || *n != names[0],
                    "{n}: no rows to compare"
                );
                assert_eq!(
                    norm(&d.outputs[*n]),
                    norm(sync.stream(n)),
                    "{n} (traced {traced})"
                );
            }
        }
    }

    /// The layer pipeline computes what the synchronous engine computes,
    /// traced or not, on a prefix of every workload's input.
    #[test]
    fn layer_pipeline_rows_equal_run_capture() {
        for mut w in [
            gen::e2_accounting(3),
            gen::q100_select(3),
            gen::hfta_merge_agg(3),
        ] {
            w.burst.truncate(30_000);
            w.cycles = w.cycles.min(2);
            let gs = w.system();
            same_rows(&gs, &|| Box::new(w.replay()), &w.fidelity_subs);
        }
        let mut d = gen::daemon_input(3);
        d.chunks.truncate(gen::LEAD_IN + gen::WARM_UP + 5);
        let subs: Vec<String> = gen::DAEMON_STREAMS.iter().map(|s| s.to_string()).collect();
        same_rows(&d.system(), &|| Box::new(d.all()), &subs);
    }
}
