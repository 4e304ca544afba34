//! End-to-end runs of `daemon_carry`: an in-process `gsqd` with carried
//! state and a durable state directory, one subscriber connection and
//! one control connection that registers and unregisters a query.

use crate::clock::{peak_rss_mb, process_cpu_ns};
use crate::gen::{
    DaemonInput, CHURN_QUERY, DAEMON_PROGRAM, DAEMON_STREAMS, LEAD_IN, PER_EPOCH, TIMED, WARM_UP,
};
use crate::oneshot::norm;
use crate::stats::{beyond, median, quantile, IndexSamples};
use crate::{Checks, Metrics};
use gigascope::manager::run_threaded;
use gigascope::server::client::Client;
use gigascope::server::wire::TuplesFrame;
use gigascope::server::{self, DaemonConfig, PacketSource};
use gigascope::Tuple;
use gs_packet::capture::LinkType;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

/// Set-up-only sessions timed before each full session (beside the full
/// session's own set-up), so set-ups are spread over the run.
const SETUPS_PER_SESSION: usize = 6;
/// REGISTER/UNREGISTER pairs the control connection makes per session.
const CHURN: usize = 20;
/// A client read that takes this long means the daemon is stuck.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// The first epoch whose packets are timed.
const FIRST_TIMED: u64 = (LEAD_IN + WARM_UP) as u64;
/// The last epoch that carries packets.
const LAST_REAL: u64 = (LEAD_IN + WARM_UP + TIMED - 1) as u64;

fn config(input: &DaemonInput, state_dir: &Path) -> DaemonConfig {
    DaemonConfig {
        ifaces: vec![("eth0".to_string(), 0, LinkType::Ethernet)],
        initial_program: Some(DAEMON_PROGRAM.to_string()),
        source: PacketSource::Chunked(input.chunks.clone()),
        carry_state: true,
        state_dir: Some(state_dir.to_path_buf()),
        ..DaemonConfig::default()
    }
}

fn subscriber(addr: std::net::SocketAddr) -> Client {
    let mut c = Client::connect(addr).expect("connect to daemon");
    c.set_timeout(Some(CLIENT_TIMEOUT))
        .expect("set client timeout");
    for s in DAEMON_STREAMS {
        c.subscribe(s).expect("subscribe");
    }
    c
}

/// What the subscriber saw: rows per stream, marker order, and the
/// arrival time and process CPU clock at each marker of the first stream.
struct Collected {
    rows: HashMap<String, Vec<Tuple>>,
    next: HashMap<String, u64>,
    contiguous: bool,
    marks: Vec<(u64, Instant, u64)>,
}

impl Default for Collected {
    fn default() -> Collected {
        Collected {
            rows: HashMap::new(),
            next: HashMap::new(),
            contiguous: true,
            marks: Vec::new(),
        }
    }
}

impl Collected {
    fn frame(&mut self, f: TuplesFrame, stamp: bool) {
        if !f.rows.is_empty() {
            self.rows.entry(f.stream).or_default().extend(f.rows);
            return;
        }
        let expect = self.next.entry(f.stream.clone()).or_insert(f.epoch);
        self.contiguous &= f.epoch == *expect;
        *expect = f.epoch + 1;
        if stamp && f.stream == DAEMON_STREAMS[0] {
            self.marks.push((f.epoch, Instant::now(), process_cpu_ns()));
        }
    }
}

/// One session's observations.
struct Session {
    setup_s: f64,
    /// Marker-to-marker intervals of the timed epochs, in ms.
    epochs: Vec<f64>,
    /// Process CPU time of the same intervals, in ns.
    epoch_cpu_ns: Vec<f64>,
    register_ms: Vec<f64>,
}

/// Start a daemon on a fresh state directory, subscribe, and return
/// the set-up time: `server::start` to the first end-of-epoch marker.
fn setup_only(input: &DaemonInput, dir: &Path) -> f64 {
    let t0 = Instant::now();
    let mut handle = server::start(config(input, dir)).expect("daemon starts");
    let mut c = subscriber(handle.addr());
    loop {
        let f = c.next_tuples().expect("daemon frame");
        if f.rows.is_empty() {
            break;
        }
    }
    let setup = t0.elapsed().as_secs_f64();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    setup
}

fn session(
    input: &DaemonInput,
    dir: &Path,
    reference: &HashMap<String, Vec<String>>,
    checks: &mut Checks,
) -> Session {
    let t0 = Instant::now();
    let mut handle = server::start(config(input, dir)).expect("daemon starts");
    let addr = handle.addr();
    let mut sub = subscriber(addr);

    let churn = thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect to daemon");
        c.set_timeout(Some(CLIENT_TIMEOUT))
            .expect("set client timeout");
        c.wait_epoch(FIRST_TIMED)
            .expect("wait for the timed epochs");
        // Back to back: each REGISTER is sent right after the previous
        // UNREGISTER's boundary, and the daemon applies it at the next
        // boundary, so the time to OK is the rest of the running epoch
        // plus the attach itself (about 0.1 ms of a ~20 ms epoch). The
        // two cannot be told apart from outside: the subscriber's marker
        // arrivals race the reply on another connection. The attach runs
        // on the engine thread between two epochs, so its cost also
        // lands in the epoch intervals.
        (0..CHURN)
            .map(|_| {
                let t = Instant::now();
                c.register(CHURN_QUERY).expect("REGISTER");
                let ms = t.elapsed().as_secs_f64() * 1e3;
                c.unregister("churn").expect("UNREGISTER");
                ms
            })
            .collect::<Vec<f64>>()
    });

    let mut c = Collected::default();
    let mut first_marker = None;
    loop {
        let f = sub.next_tuples().expect("daemon frame");
        if f.rows.is_empty() && first_marker.is_none() {
            first_marker = Some((t0.elapsed().as_secs_f64(), f.epoch));
        }
        let done = f.rows.is_empty() && f.stream == DAEMON_STREAMS[0] && f.epoch >= LAST_REAL;
        c.frame(f, true);
        if done {
            break;
        }
    }
    let register_ms = churn.join().expect("control connection thread");
    sub.shutdown().expect("SHUTDOWN");
    // The flush epoch's held tails, then the daemon closes the socket.
    while let Ok(f) = sub.next_tuples() {
        c.frame(f, false);
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);

    let (setup_s, first_epoch) = first_marker.expect("at least one marker");
    checks.check(first_epoch < LEAD_IN as u64, || {
        format!("subscribed too late: first marker is epoch {first_epoch}")
    });
    checks.check(c.contiguous, || "markers missing or out of order".into());
    for s in DAEMON_STREAMS {
        let got = norm(c.rows.get(s).map(Vec::as_slice).unwrap_or(&[]));
        checks.check(got == reference[s], || {
            format!("{s}: wire rows differ from one continuous run_threaded")
        });
    }
    let timed: Vec<&(u64, Instant, u64)> = c
        .marks
        .iter()
        .filter(|m| m.0 + 1 >= FIRST_TIMED && m.0 <= LAST_REAL)
        .collect();
    checks.check(timed.len() == TIMED + 1, || {
        format!("{} timed markers", timed.len())
    });
    let (epochs, epoch_cpu_ns) = timed
        .windows(2)
        .map(|w| {
            let ms = (w[1].1 - w[0].1).as_secs_f64() * 1e3;
            (ms, (w[1].2 - w[0].2) as f64)
        })
        .unzip();
    Session {
        setup_s,
        epochs,
        epoch_cpu_ns,
        register_ms,
    }
}

/// Fresh, empty state directory `n` under `root` (sessions remove
/// theirs when they end).
fn fresh_dir(root: &Path, n: usize) -> PathBuf {
    let d = root.join(format!("state-{n}"));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Run sessions for `seconds` and report the end-to-end metrics.
pub fn run(input: &DaemonInput, seconds: f64, tmp: &Path, checks: &mut Checks) -> Metrics {
    let gs = input.system();
    let out = run_threaded(&gs, input.all(), &DAEMON_STREAMS).expect("reference run");
    let reference: HashMap<String, Vec<String>> = DAEMON_STREAMS
        .iter()
        .map(|s| (s.to_string(), norm(out.stream(s))))
        .collect();
    drop(out);

    let mut dirs = 0;
    let mut setup = Vec::new();
    // Each timed epoch's interval, its CPU time and each registration
    // are reported for their best session: the host's slow phases only
    // ever slow an epoch down. The daemon runs each epoch to its end
    // before the next begins, so an epoch's interval and CPU time hold
    // its own work, and throughput and CPU per packet add up the epochs'
    // bests into a whole session.
    let (mut epochs, mut cpu) = (IndexSamples::default(), IndexSamples::default());
    let mut register = IndexSamples::default();
    let mut sessions = 0;
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs_f64(seconds) || sessions == 0 {
        for _ in 0..SETUPS_PER_SESSION {
            dirs += 1;
            setup.push(setup_only(input, &fresh_dir(tmp, dirs)));
        }
        dirs += 1;
        let s = session(input, &fresh_dir(tmp, dirs), &reference, checks);
        sessions += 1;
        println!(
            "session {sessions}: epoch p50 {:.2} ms, p90 {:.2} ms, register p50 {:.2} ms, setup {:.4} s",
            median(&s.epochs),
            quantile(&s.epochs, 0.9),
            median(&s.register_ms),
            s.setup_s
        );
        setup.push(s.setup_s);
        epochs.add(&s.epochs);
        cpu.add(&s.epoch_cpu_ns);
        register.add(&s.register_ms);
    }
    let (epochs, cpu, register) = (epochs.mins(), cpu.mins(), register.mins());
    let packets = (epochs.len() * PER_EPOCH) as f64;
    println!(
        "sessions {sessions}; {} timed epochs of {PER_EPOCH} packets, each its best over the \
         sessions ({} beyond p90); {} registrations per session; setups {}",
        epochs.len(),
        beyond(&epochs, 0.9),
        register.len(),
        setup.len()
    );
    let mut m = Metrics::default();
    m.put(
        "pkts_per_s",
        packets / (epochs.iter().sum::<f64>() / 1e3),
        "pkt/s",
    );
    m.put(
        "cpu_ns_per_pkt",
        cpu.iter().sum::<f64>() / packets,
        "ns/pkt",
    );
    m.put("epoch_ms_p50", median(&epochs), "ms");
    m.put("epoch_ms_p90", quantile(&epochs, 0.9), "ms");
    m.put("register_ms_p50", median(&register), "ms");
    m.put("setup_s", median(&setup), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m
}
