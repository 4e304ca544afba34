//! Workload inputs: every packet, program and reference answer is made
//! here from the run's seed, so the same seed gives the same inputs and
//! the system under test sees only `CapPacket`s.

use gigascope::Gigascope;
use gs_netgen::http::matches_http;
use gs_netgen::{merge_sources, MixConfig, PacketMix};
use gs_packet::builder::FrameBuilder;
use gs_packet::capture::LinkType;
use gs_packet::view::PacketView;
use gs_packet::CapPacket;
use std::collections::HashMap;

/// Seed of sub-stream `k` of a run seeded with `seed` (SplitMix64
/// finalizer, so neighbouring seeds give unrelated streams).
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The query every workload registers and removes to time the control
/// plane: a small selection that leaves the workload's own queries alone.
pub const CHURN_QUERY: &str =
    "DEFINE { query_name churn; } Select time, srcIP From eth0.tcp Where destPort = 7";

/// The 20-port pool of the 100-query selection program: 100
/// registrations share 20 distinct predicates.
pub const Q100_PORTS: [u16; 20] = [
    80, 443, 53, 25, 8080, 22, 123, 161, 1433, 3306, 5060, 5432, 6379, 8443, 9090, 1024, 2048,
    4096, 3128, 179,
];

/// A workload that runs as repeated one-shot passes over one input.
pub struct OneShot {
    /// Interfaces the program reads, `(name, id)`.
    pub ifaces: Vec<(&'static str, u16)>,
    /// The GSQL program.
    pub program: String,
    /// Streams collected by the end-to-end passes.
    pub subs: Vec<String>,
    /// Streams compared row for row by the traced run's fidelity check.
    pub fidelity_subs: Vec<String>,
    /// The recorded packets one replay cycle plays.
    pub burst: Vec<CapPacket>,
    /// Replay cycles per pass.
    pub cycles: u64,
    /// Virtual-time shift per replay cycle, in nanoseconds.
    pub span_ns: u64,
    /// What the outputs must equal.
    pub reference: Reference,
}

/// Expected results, computed from the generated packets alone — no
/// plan, split or operator is involved.
pub enum Reference {
    /// `e2_accounting`: TCP packets per link over the whole pass.
    E2 { tcp_per_link: [u64; 2] },
    /// `q100_select`: TCP packets per destination port.
    Q100 { per_port: HashMap<u16, u64> },
    /// `hfta_merge_agg`: per-second regex matches on eth0, netgen's own
    /// match total, per-(second, srcIP) packet counts over both links.
    Merge {
        http_per_sec: HashMap<u64, u64>,
        http_truth: u64,
        per_src: HashMap<(u64, u32), u64>,
        ip_pkts: u64,
    },
}

impl OneShot {
    /// Packets in one pass.
    pub fn packets(&self) -> u64 {
        self.burst.len() as u64 * self.cycles
    }

    /// A fresh system with this workload's interfaces and program.
    pub fn system(&self) -> Gigascope {
        let mut gs = self.interfaces();
        gs.add_program(&self.program)
            .expect("workload program compiles");
        gs
    }

    /// A fresh system with only the interfaces registered.
    pub fn interfaces(&self) -> Gigascope {
        let mut gs = Gigascope::new();
        for &(name, id) in &self.ifaces {
            gs.add_interface(name, id, LinkType::Ethernet);
        }
        gs
    }

    /// One pass of input: the burst replayed `cycles` times with shifted
    /// timestamps.
    pub fn replay(&self) -> Replay<'_> {
        Replay {
            pkts: &self.burst,
            span_ns: self.span_ns,
            cycles: self.cycles,
            cycle: 0,
            idx: 0,
        }
    }
}

/// Replays a recorded burst with shifted timestamps.
pub struct Replay<'a> {
    pkts: &'a [CapPacket],
    span_ns: u64,
    cycles: u64,
    cycle: u64,
    idx: usize,
}

impl Iterator for Replay<'_> {
    type Item = CapPacket;

    fn next(&mut self) -> Option<CapPacket> {
        if self.cycle >= self.cycles || self.pkts.is_empty() {
            return None;
        }
        let mut p = self.pkts[self.idx].clone();
        p.ts_ns += self.cycle * self.span_ns;
        self.idx += 1;
        if self.idx == self.pkts.len() {
            self.idx = 0;
            self.cycle += 1;
        }
        Some(p)
    }
}

/// `e2_accounting` (paper §5): per-second per-port accounting on two
/// links, one second of traffic replayed to about 2 M packets.
pub fn e2_accounting(seed: u64) -> OneShot {
    let mk = |iface: u16| {
        PacketMix::new(MixConfig {
            seed: sub_seed(seed, u64::from(iface)),
            iface,
            duration_ms: 1_000,
            http_rate_mbps: 200.0,
            background_rate_mbps: 300.0,
            flows: 5_000,
            ..MixConfig::default()
        })
    };
    let burst: Vec<CapPacket> = merge_sources(vec![
        Box::new(mk(0)) as Box<dyn Iterator<Item = CapPacket>>,
        Box::new(mk(1)),
    ])
    .collect();
    let cycles = (2_000_000 / burst.len() as u64).max(2);
    let mut tcp_per_link = [0u64; 2];
    for p in &burst {
        if PacketView::parse(p.clone()).tcp().is_some() {
            tcp_per_link[usize::from(p.iface)] += cycles;
        }
    }
    OneShot {
        ifaces: vec![("eth0", 0), ("eth1", 1)],
        program: "DEFINE { query_name app0; } \
             Select time, destPort, count(*), sum(len) From eth0.tcp Group By time, destPort; \
             DEFINE { query_name app1; } \
             Select time, destPort, count(*), sum(len) From eth1.tcp Group By time, destPort;"
            .to_string(),
        subs: vec!["app0".into(), "app1".into()],
        fidelity_subs: vec!["app0".into(), "app1".into()],
        burst,
        cycles,
        span_ns: 1_000_000_000,
        reference: Reference::E2 { tcp_per_link },
    }
}

/// `q100_select`: 100 per-port selections over a 20-port pool on one
/// link, about 300k packets of the standard mix, nothing subscribed.
pub fn q100_select(seed: u64) -> OneShot {
    let burst: Vec<CapPacket> = PacketMix::new(MixConfig {
        seed: sub_seed(seed, 10),
        duration_ms: 8_300,
        ..MixConfig::default()
    })
    .collect();
    let mut per_port: HashMap<u16, u64> = Q100_PORTS.iter().map(|&p| (p, 0)).collect();
    for p in &burst {
        if let Some(t) = PacketView::parse(p.clone()).tcp() {
            if let Some(n) = per_port.get_mut(&t.dst_port) {
                *n += 1;
            }
        }
    }
    let program: String = (0..100)
        .map(|i| {
            format!(
                "DEFINE {{ query_name q{i}; }} \
                 Select time, destPort From eth0.tcp Where destPort = {};\n",
                Q100_PORTS[i % Q100_PORTS.len()]
            )
        })
        .collect();
    OneShot {
        ifaces: vec![("eth0", 0)],
        program,
        subs: Vec::new(),
        fidelity_subs: (0..100).map(|i| format!("q{i}")).collect(),
        burst,
        cycles: 1,
        span_ns: 0,
        reference: Reference::Q100 { per_port },
    }
}

/// `hfta_merge_agg`: two links projected raw, merged, and grouped per
/// (second, srcIP) over about 50k Zipf flows per traffic class, beside
/// the paper §4 HTTP regex count; about 600k packets.
pub fn hfta_merge_agg(seed: u64) -> OneShot {
    let cfg = |iface: u16| MixConfig {
        seed: sub_seed(seed, 20 + u64::from(iface)),
        iface,
        duration_ms: 4_000,
        http_rate_mbps: 60.0,
        background_rate_mbps: 270.0,
        flows: 50_000,
        ..MixConfig::default()
    };
    let mut eth0 = PacketMix::new(cfg(0));
    let link0: Vec<CapPacket> = (&mut eth0).collect();
    let http_truth = eth0.truth().http_match_pkts;
    let link1: Vec<CapPacket> = PacketMix::new(cfg(1)).collect();
    let burst: Vec<CapPacket> = merge_sources(vec![
        Box::new(link0.into_iter()) as Box<dyn Iterator<Item = CapPacket>>,
        Box::new(link1.into_iter()),
    ])
    .collect();
    let mut http_per_sec: HashMap<u64, u64> = HashMap::new();
    let mut per_src: HashMap<(u64, u32), u64> = HashMap::new();
    let mut ip_pkts = 0;
    for p in &burst {
        let sec = u64::from(p.time_sec());
        let v = PacketView::parse(p.clone());
        if let Some(ip) = v.ipv4() {
            ip_pkts += 1;
            *per_src.entry((sec, ip.src)).or_default() += 1;
        }
        if p.iface == 0 && v.tcp().is_some_and(|t| t.dst_port == 80) {
            let hit = v.payload().is_some_and(|b| matches_http(&b));
            if hit {
                *http_per_sec.entry(sec).or_default() += 1;
            }
        }
    }
    OneShot {
        ifaces: vec![("eth0", 0), ("eth1", 1)],
        program: "DEFINE { query_name raw0; } Select time, srcIP, len From eth0.ip; \
             DEFINE { query_name raw1; } Select time, srcIP, len From eth1.ip; \
             DEFINE { query_name both; } Merge raw0.time : raw1.time From raw0, raw1; \
             DEFINE { query_name flows; } \
             Select time, srcIP, count(*), sum(len), min(len), max(len) From both \
             Group By time, srcIP; \
             DEFINE { query_name http; } \
             Select time, count(*) From eth0.tcp \
             Where destPort = 80 and str_match_regex(payload, '^[^\\n]*HTTP/1.*') \
             Group By time;"
            .to_string(),
        subs: vec!["flows".into(), "http".into()],
        fidelity_subs: vec!["flows".into(), "http".into()],
        burst,
        cycles: 1,
        span_ns: 0,
        reference: Reference::Merge {
            http_per_sec,
            http_truth,
            per_src,
            ip_pkts,
        },
    }
}

/// Empty epochs before the first packet: the subscriber's margin to get
/// its SUBSCRIBEs in before any row is produced. Empty epochs run back
/// to back in about a millisecond each, and set-up to the first marker
/// takes tens of milliseconds, so the margin is a few hundred of them.
pub const LEAD_IN: usize = 300;
/// Epochs that touch every carried group once (the state reaches its
/// steady size here).
pub const WARM_UP: usize = 10;
/// Timed epochs after warm-up.
pub const TIMED: usize = 120;
/// Packets per non-empty epoch.
pub const PER_EPOCH: usize = 2_000;
/// Distinct sources, hence carried groups of the long-window aggregate.
const GROUPS: usize = 20_000;
/// Virtual time one epoch covers.
const EPOCH_NS: u64 = 100_000_000;

/// The `daemon_carry` program: a long-window per-source aggregate whose
/// window never closes during a session (so its groups are carried
/// every epoch) and a per-second aggregate that emits rows.
pub const DAEMON_PROGRAM: &str = "DEFINE { query_name persrc; } \
     Select hr, srcIP, count(*), sum(len) From eth0.ip Group By time/3600 as hr, srcIP; \
     DEFINE { query_name persec; } \
     Select time, count(*), sum(len) From eth0.ip Group By time";

/// Streams the daemon's subscriber reads.
pub const DAEMON_STREAMS: [&str; 2] = ["persrc", "persec"];

/// `daemon_carry` input: `LEAD_IN` empty chunks, `WARM_UP` chunks that
/// visit each of the `GROUPS` sources once, then `TIMED` chunks drawing
/// sources uniformly from the same set.
pub struct DaemonInput {
    /// Every epoch's packets, lead-in included.
    pub chunks: Vec<Vec<CapPacket>>,
}

impl DaemonInput {
    /// The concatenated trace: what one continuous run sees.
    pub fn all(&self) -> impl Iterator<Item = CapPacket> + '_ {
        self.chunks.iter().flatten().cloned()
    }

    /// A system with the daemon's interface and program, for one-shot
    /// runs over the concatenated trace.
    pub fn system(&self) -> Gigascope {
        let mut gs = Gigascope::new();
        gs.add_interface("eth0", 0, LinkType::Ethernet);
        gs.add_program(DAEMON_PROGRAM)
            .expect("daemon program compiles");
        gs
    }
}

/// Generate the `daemon_carry` input for `seed`.
pub fn daemon_input(seed: u64) -> DaemonInput {
    let mut rng = SplitMix(sub_seed(seed, 30));
    let mut seen = std::collections::HashSet::new();
    let mut sources = Vec::with_capacity(GROUPS);
    while sources.len() < GROUPS {
        let ip = 0x0a00_0000 | (rng.next() as u32 & 0x00ff_ffff);
        if seen.insert(ip) {
            sources.push(ip);
        }
    }
    let mut chunks: Vec<Vec<CapPacket>> = vec![Vec::new(); LEAD_IN];
    let step = EPOCH_NS / PER_EPOCH as u64;
    for e in 0..WARM_UP + TIMED {
        let chunk = (0..PER_EPOCH)
            .map(|j| {
                let src = if e < WARM_UP {
                    sources[(e * PER_EPOCH + j) % GROUPS]
                } else {
                    sources[(rng.next() % GROUPS as u64) as usize]
                };
                let r = rng.next();
                let frame = FrameBuilder::tcp(src, 0xc0a8_0001, 1024 + (r as u16 & 0x3fff), 443)
                    .payload(&[0u8; 64][..(r >> 32) as usize % 64])
                    .build_ethernet();
                CapPacket::full(
                    e as u64 * EPOCH_NS + j as u64 * step,
                    0,
                    LinkType::Ethernet,
                    frame,
                )
            })
            .collect();
        chunks.push(chunk);
    }
    DaemonInput { chunks }
}

/// SplitMix64: the benchmark's own generator for inputs netgen does not
/// model.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        sub_seed(self.0, 0)
    }
}
