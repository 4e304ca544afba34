//! The traced layer pipeline: one thread replays a workload's packets
//! through the system's public per-layer calls, in pipeline order, with
//! a span around each call.
//!
//! Per packet batch: `PacketView::parse` (packet layer), then
//! `SharedPrefilter::dispatch` (which parses again and runs the LFTA
//! tails inside it), then `Lfta::push_matched` for the same hit slots on
//! a twin LFTA set, so the prefilter's self time is dispatch minus parse
//! minus the tails. LFTA output is batched per stream as the threaded
//! manager's edges batch it (256 rows, flushed early on punctuation),
//! each batch crosses a `transport::channel`, and HFTA nodes consume it
//! through `HftaNode::push_cols`. Spans keep a parent link, so each
//! layer's self time is its duration minus its children's.

use crate::clock::thread_cpu_ns;
use gigascope::transport::{channel, Admission, Receiver, Sender};
use gigascope::Gigascope;
use gs_gsql::plan::Plan;
use gs_gsql::split::LftaSpec;
use gs_packet::view::PacketView;
use gs_packet::CapPacket;
use gs_runtime::batch::{ColBuilder, ColumnBatch};
use gs_runtime::ops::build::{build_hfta, build_lfta, BuildCtx, HftaNode};
use gs_runtime::ops::lfta::Lfta;
use gs_runtime::ops::prefilter::{PrefilterCache, SharedPrefilter};
use gs_runtime::snapshot::{SnapReader, SnapWriter};
use gs_runtime::udf::{FileStore, UdfRegistry};
use gs_runtime::{ParamBindings, Punct, StreamItem, Tuple};
use std::collections::HashMap;
use std::time::Instant;

/// Rows per transport batch: the manager's default `batch_size`.
const BATCH: usize = 256;

/// Layer names the pipeline opens spans for. `twin_flush` keeps the
/// twin LFTA set's tables in step with the real ones; like the parse
/// and `lfta` replays it is the model's own extra work.
pub const LAYERS: [&str; 8] = [
    "parse",
    "prefilter",
    "lfta",
    "flush",
    "twin_flush",
    "edge",
    "transport",
    "hfta",
];

/// One span: a call into one layer.
struct Span {
    layer: usize,
    parent: Option<usize>,
    wall: u64,
    cpu: u64,
}

/// Spans of one traced pass, kept in memory until the pass ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, u64, u64)>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn enter(&mut self, layer: usize) {
        let parent = self.open.last().map(|o| o.0);
        self.spans.push(Span {
            layer,
            parent,
            wall: 0,
            cpu: 0,
        });
        let id = self.spans.len() - 1;
        self.open
            .push((id, self.origin.elapsed().as_nanos() as u64, thread_cpu_ns()));
    }

    fn exit(&mut self) {
        let (id, wall0, cpu0) = self.open.pop().expect("span open");
        let s = &mut self.spans[id];
        s.cpu = thread_cpu_ns() - cpu0;
        s.wall = self.origin.elapsed().as_nanos() as u64 - wall0;
    }

    /// Self time per layer, `(cpu_ns, wall_ns)`: each span's duration
    /// minus the durations of the spans it directly contains.
    pub fn self_times(&self) -> [(u64, u64); LAYERS.len()] {
        let mut child = vec![(0u64, 0u64); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p].0 += s.cpu;
                child[p].1 += s.wall;
            }
        }
        let mut out = [(0u64, 0u64); LAYERS.len()];
        for (s, c) in self.spans.iter().zip(child) {
            out[s.layer].0 += s.cpu.saturating_sub(c.0);
            out[s.layer].1 += s.wall.saturating_sub(c.1);
        }
        out
    }
}

fn layer(name: &str) -> usize {
    LAYERS.iter().position(|l| *l == name).expect("known layer")
}

/// Work counts the pipeline observes at layer boundaries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Packets offered.
    pub packets: u64,
    /// LFTA slots hit by dispatch.
    pub hits: u64,
    /// LFTA slots registered.
    pub slots: u64,
    /// Tuples the LFTAs emitted.
    pub lfta_out: u64,
    /// Batches that crossed a transport channel.
    pub batches: u64,
    /// Tuples HFTA nodes consumed.
    pub hfta_in: u64,
    /// Tuples HFTA nodes emitted.
    pub hfta_out: u64,
}

struct Node {
    name: String,
    plan: Plan,
    node: HftaNode,
    out_sid: usize,
}

type Edge = (
    Sender<(ColumnBatch, Option<Punct>)>,
    Receiver<(ColumnBatch, Option<Punct>)>,
);

/// The end-of-input state of every stateful node, sealed as the
/// daemon's carry cut seals it (`hfta:<query>`, `lfta:<stream>`).
pub struct Cut {
    /// Sealed snapshots by node.
    pub entries: HashMap<String, Vec<u8>>,
    /// CPU ns spent capturing them.
    pub capture_cpu_ns: u64,
    /// CPU ns spent restoring them into freshly built nodes.
    pub restore_cpu_ns: u64,
}

/// The single-thread pipeline over one workload's deployed queries.
pub struct Pipeline {
    lftas: Vec<(Lfta, u16)>,
    twins: Vec<(Lfta, u16)>,
    specs: Vec<LftaSpec>,
    lfta_sid: Vec<usize>,
    outs: Vec<Vec<StreamItem>>,
    twin_out: Vec<StreamItem>,
    prefilter: SharedPrefilter,
    nodes: Vec<Node>,
    consumers: Vec<Vec<(usize, usize)>>,
    builders: Vec<ColBuilder>,
    edges: Vec<Edge>,
    collect: Vec<Option<String>>,
    sids: HashMap<String, usize>,
    last_heartbeat: Option<u64>,
    /// Rows of every collected stream.
    pub outputs: HashMap<String, Vec<Tuple>>,
    /// Work counts.
    pub counts: Counts,
    /// Spans, when tracing.
    pub tracer: Option<Tracer>,
}

fn ctx<'a>(
    gs: &'a Gigascope,
    params: &'a ParamBindings,
    registry: &'a UdfRegistry,
    resolver: &'a FileStore,
) -> BuildCtx<'a> {
    BuildCtx {
        catalog: gs.catalog(),
        params,
        registry,
        resolver,
        lfta_table_size: gs.lfta_table_size,
    }
}

fn iface_of(gs: &Gigascope, spec: &LftaSpec) -> u16 {
    let mut iface = None;
    spec.plan.visit(&mut |p| {
        if let Plan::ProtocolScan { interface, .. } = p {
            iface = Some(interface.clone());
        }
    });
    let name = iface.expect("an LFTA scans an interface");
    gs.catalog()
        .interface(&name)
        .expect("registered interface")
        .id
}

impl Pipeline {
    /// Instantiate every deployed query of `gs` (no parameters, built-in
    /// functions only), collecting `subs`. With `traced` the pipeline
    /// records spans and replays parse and LFTA tails on the side.
    pub fn new(gs: &Gigascope, subs: &[String], traced: bool) -> Pipeline {
        let params = ParamBindings::new();
        let registry = UdfRegistry::with_builtins();
        let resolver = FileStore::new();
        let cx = ctx(gs, &params, &registry, &resolver);
        let mut d = Pipeline {
            lftas: Vec::new(),
            twins: Vec::new(),
            specs: Vec::new(),
            lfta_sid: Vec::new(),
            outs: Vec::new(),
            twin_out: Vec::new(),
            prefilter: SharedPrefilter::new(),
            nodes: Vec::new(),
            consumers: Vec::new(),
            builders: Vec::new(),
            edges: Vec::new(),
            collect: Vec::new(),
            sids: HashMap::new(),
            last_heartbeat: None,
            outputs: HashMap::new(),
            counts: Counts::default(),
            tracer: traced.then(Tracer::new),
        };
        for dq in gs.queries() {
            for spec in &dq.lftas {
                let iface = iface_of(gs, spec);
                d.lftas
                    .push((build_lfta(spec, &cx).expect("LFTA builds"), iface));
                d.twins
                    .push((build_lfta(spec, &cx).expect("LFTA builds"), iface));
                d.specs.push(spec.clone());
                let sid = d.sid(&spec.name);
                d.lfta_sid.push(sid);
            }
            if let Some(plan) = &dq.hfta {
                let node = build_hfta(plan, &cx).expect("HFTA builds");
                let idx = d.nodes.len();
                for (port, input) in node.inputs.iter().enumerate() {
                    let sid = d.sid(input);
                    d.consumers[sid].push((idx, port));
                }
                let out_sid = d.sid(&dq.name);
                d.nodes.push(Node {
                    name: dq.name.clone(),
                    plan: plan.clone(),
                    node,
                    out_sid,
                });
            }
        }
        let mut cache = PrefilterCache::new();
        for (lfta, iface) in &mut d.lftas {
            lfta.intern_prefilter(&mut |p| cache.intern(p));
            d.prefilter.add_lfta(lfta, *iface);
        }
        d.outs = (0..d.lftas.len()).map(|_| Vec::new()).collect();
        d.counts.slots = d.lftas.len() as u64;
        for s in subs {
            let sid = *d.sids.get(s).expect("subscribed stream exists");
            d.collect[sid] = Some(s.clone());
            d.outputs.entry(s.clone()).or_default();
        }
        d
    }

    fn sid(&mut self, name: &str) -> usize {
        if let Some(&s) = self.sids.get(name) {
            return s;
        }
        let s = self.consumers.len();
        self.sids.insert(name.to_string(), s);
        self.consumers.push(Vec::new());
        self.builders.push(ColBuilder::new());
        let (tx, rx, _) = channel(4, Admission::Block);
        self.edges.push((tx, rx));
        self.collect.push(None);
        s
    }

    fn enter(&mut self, name: &str) {
        if let Some(t) = &mut self.tracer {
            t.enter(layer(name));
        }
    }

    fn exit(&mut self) {
        if let Some(t) = &mut self.tracer {
            t.exit();
        }
    }

    /// Replay `packets` up to the end of input (nothing is finished).
    pub fn run(&mut self, packets: impl Iterator<Item = CapPacket>) {
        let mut batch = Vec::with_capacity(BATCH);
        for pkt in packets {
            let sec = u64::from(pkt.time_sec());
            // The heartbeat falls after the packet that advances the
            // clock, as in the synchronous engine.
            let due = self.last_heartbeat.is_none_or(|l| sec > l);
            batch.push(pkt);
            if due || batch.len() == BATCH {
                self.process(&mut batch);
            }
            if due {
                self.heartbeat(sec);
            }
        }
        self.process(&mut batch);
    }

    fn process(&mut self, batch: &mut Vec<CapPacket>) {
        if batch.is_empty() {
            return;
        }
        self.counts.packets += batch.len() as u64;
        let traced = self.tracer.is_some();
        let mut views = Vec::new();
        if traced {
            self.enter("parse");
            views.extend(batch.iter().map(|p| PacketView::parse(p.clone())));
            self.exit();
        }
        let mut hits: Vec<(u32, u32)> = Vec::new();
        self.enter("prefilter");
        for (k, p) in batch.iter().enumerate() {
            self.prefilter.dispatch(p, &mut self.lftas, &mut self.outs);
            if traced {
                hits.extend(
                    self.prefilter
                        .hit_slots()
                        .iter()
                        .map(|&i| (k as u32, i as u32)),
                );
            }
        }
        self.exit();
        if traced {
            self.counts.hits += hits.len() as u64;
            self.enter("lfta");
            for &(k, i) in &hits {
                self.twins[i as usize]
                    .0
                    .push_matched(&views[k as usize], &mut self.twin_out);
            }
            self.exit();
            self.twin_out.clear();
        }
        batch.clear();
        self.enter("edge");
        for i in 0..self.outs.len() {
            if !self.outs[i].is_empty() {
                let items = std::mem::take(&mut self.outs[i]);
                self.counts.lfta_out += items.iter().filter(|x| !x.is_punct()).count() as u64;
                self.emit(self.lfta_sid[i], items);
            }
        }
        self.exit();
    }

    fn heartbeat(&mut self, now: u64) {
        self.last_heartbeat = Some(now);
        for i in 0..self.lftas.len() {
            let mut out = Vec::new();
            self.enter("flush");
            self.lftas[i].0.heartbeat(now, &mut out);
            self.exit();
            if self.tracer.is_some() {
                self.enter("twin_flush");
                self.twins[i].0.heartbeat(now, &mut self.twin_out);
                self.exit();
                self.twin_out.clear();
            }
            if !out.is_empty() {
                self.counts.lfta_out += out.iter().filter(|x| !x.is_punct()).count() as u64;
                self.enter("edge");
                self.emit(self.lfta_sid[i], out);
                self.exit();
            }
        }
    }

    /// Append produced rows to stream `sid`'s edge, flushing on size and
    /// on punctuation (which rides the batch it closes). A stream nobody
    /// consumes is batched and dropped, as the manager's edges drop it.
    fn emit(&mut self, sid: usize, items: Vec<StreamItem>) {
        for item in items {
            match item {
                StreamItem::Tuple(t) => {
                    self.builders[sid].push_tuple(&t);
                    if self.builders[sid].len() >= BATCH {
                        self.flush(sid, None);
                    }
                }
                StreamItem::Punct(p) => self.flush(sid, Some(p)),
            }
        }
    }

    fn flush(&mut self, sid: usize, punct: Option<Punct>) {
        let cb = self.builders[sid].finish();
        self.deliver(sid, cb, punct);
    }

    /// Ship one batch to every consumer of `sid` (and the collector);
    /// with neither, the batch is dropped.
    fn deliver(&mut self, sid: usize, cb: ColumnBatch, punct: Option<Punct>) {
        if cb.is_empty() && punct.is_none() {
            return;
        }
        if self.collect[sid].is_some() {
            // A subscription drains through its own queue, as the
            // manager's collectors do.
            let (cols, _) = self.hop(sid, (cb.clone(), None));
            let name = self.collect[sid].as_ref().expect("collected stream");
            let rows = self.outputs.get_mut(name).expect("collected stream");
            rows.extend((0..cols.n_rows()).map(|r| cols.row_tuple(r)));
        }
        let consumers = self.consumers[sid].clone();
        let mut msg = Some((cb, punct));
        for (j, &(idx, port)) in consumers.iter().enumerate() {
            let m = if j + 1 == consumers.len() {
                msg.take().expect("last consumer takes the batch")
            } else {
                msg.clone().expect("batch still held")
            };
            let rows = m.0.n_rows() as u64;
            let (cols, p) = self.hop(sid, m);
            self.counts.hfta_in += rows;
            let mut out = Vec::new();
            self.enter("hfta");
            let passed = self.nodes[idx].node.push_cols(port, cols, p, &mut out);
            self.exit();
            let osid = self.nodes[idx].out_sid;
            self.counts.hfta_out += out.iter().filter(|x| !x.is_punct()).count() as u64;
            if let Some((c2, p2)) = passed {
                self.counts.hfta_out += c2.n_rows() as u64;
                if !self.builders[osid].is_empty() {
                    self.flush(osid, None);
                }
                self.deliver(osid, c2, p2);
            }
            if !out.is_empty() {
                self.emit(osid, out);
            }
        }
    }

    /// One transport hop: send a batch through stream `sid`'s channel
    /// and receive it on the other side.
    fn hop(
        &mut self,
        sid: usize,
        msg: (ColumnBatch, Option<Punct>),
    ) -> (ColumnBatch, Option<Punct>) {
        self.enter("transport");
        let rows = msg.0.n_rows() as u64;
        self.edges[sid].0.send(0, rows, msg);
        let got = self.edges[sid].1.recv().expect("batch just sent");
        self.exit();
        self.counts.batches += 1;
        got
    }

    /// Flush every edge, then seal each stateful node's state at this
    /// end-of-input cut and time restoring it into a freshly built twin.
    pub fn cut(&mut self, gs: &Gigascope) -> Cut {
        for sid in 0..self.builders.len() {
            if !self.builders[sid].is_empty() {
                self.flush(sid, None);
            }
        }
        let mut entries = HashMap::new();
        let t0 = thread_cpu_ns();
        for n in &self.nodes {
            let mut w = SnapWriter::new();
            n.node.snapshot_state(&mut w);
            entries.insert(format!("hfta:{}", n.name), w.seal());
        }
        for (lfta, _) in &self.lftas {
            let mut w = SnapWriter::new();
            lfta.snapshot_state(&mut w);
            entries.insert(format!("lfta:{}", lfta.name), w.seal());
        }
        let capture_cpu_ns = thread_cpu_ns() - t0;

        let params = ParamBindings::new();
        let registry = UdfRegistry::with_builtins();
        let resolver = FileStore::new();
        let cx = ctx(gs, &params, &registry, &resolver);
        let mut fresh_nodes: Vec<(HftaNode, &[u8])> = self
            .nodes
            .iter()
            .map(|n| {
                (
                    build_hfta(&n.plan, &cx).expect("HFTA builds"),
                    &entries[&format!("hfta:{}", n.name)][..],
                )
            })
            .collect();
        let mut fresh_lftas: Vec<(Lfta, &[u8])> = self
            .specs
            .iter()
            .map(|s| {
                (
                    build_lfta(s, &cx).expect("LFTA builds"),
                    &entries[&format!("lfta:{}", s.name)][..],
                )
            })
            .collect();
        let t0 = thread_cpu_ns();
        for (node, bytes) in &mut fresh_nodes {
            let mut r = SnapReader::open(bytes).expect("sealed snapshot opens");
            node.restore_state(&mut r).expect("HFTA state restores");
            r.finish().expect("snapshot fully consumed");
        }
        for (lfta, bytes) in &mut fresh_lftas {
            let mut r = SnapReader::open(bytes).expect("sealed snapshot opens");
            lfta.restore_state(&mut r).expect("LFTA state restores");
            r.finish().expect("snapshot fully consumed");
        }
        let restore_cpu_ns = thread_cpu_ns() - t0;
        drop(fresh_nodes);
        drop(fresh_lftas);
        Cut {
            entries,
            capture_cpu_ns,
            restore_cpu_ns,
        }
    }

    /// End every stream in pipeline order: LFTAs, then HFTA nodes in
    /// submission order. Returns the rows the finish calls emitted —
    /// after a [`cut`](Pipeline::cut), the groups that cut held.
    pub fn finish(&mut self) -> u64 {
        let mut flushed = 0;
        for i in 0..self.lftas.len() {
            let mut out = Vec::new();
            self.lftas[i].0.finish(&mut out);
            flushed += out.iter().filter(|x| !x.is_punct()).count() as u64;
            let sid = self.lfta_sid[i];
            self.emit(sid, out);
            self.end_stream(sid);
        }
        for i in 0..self.nodes.len() {
            let mut out = Vec::new();
            self.nodes[i].node.finish(&mut out);
            flushed += out.iter().filter(|x| !x.is_punct()).count() as u64;
            let sid = self.nodes[i].out_sid;
            self.emit(sid, out);
            self.end_stream(sid);
        }
        flushed
    }

    /// Collision evictions from the LFTAs' direct-mapped tables.
    pub fn dm_evictions(&self) -> u64 {
        self.lftas
            .iter()
            .filter_map(|(l, _)| l.dm_stats())
            .map(|s| s.evictions)
            .sum()
    }

    fn end_stream(&mut self, sid: usize) {
        if !self.builders[sid].is_empty() {
            self.flush(sid, None);
        }
        for (idx, port) in self.consumers[sid].clone() {
            let mut out = Vec::new();
            self.nodes[idx].node.finish_input(port, &mut out);
            let osid = self.nodes[idx].out_sid;
            self.emit(osid, out);
        }
    }
}
