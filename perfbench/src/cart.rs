//! `cart-soak`: a closed loop of the service's own `LoadClient`s on
//! loopback against a four-store CRDT cart ring.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cart::CrdtCart;
use crdt::Crdt;
use dynamo::{standby_view, DynamoConfig, DynamoMsg, StoreNode, Versioned};
use quicksand_bench::http::http_get;
use quicksand_bench::service::{reconciled_cart, LoadClient, ServiceMsg};
use quicksand_core::wire::{to_bytes, WireCodec};
use quicksand_runtime::{Runtime, RuntimeBuilder, RuntimeReport, TransportKind};
use sim::{Actor, Context, NodeId};

use crate::audit::{self, Cart};
use crate::layers::{self, ReqSpan};
use crate::outcome::{self, Meter, Outcome, Series, Span};
use crate::stats;
use crate::tap::dynamo_kind::{
    CLIENT_GET, CLIENT_PUT, GET_OK, PUT_OK, REPLICA_GET, REPLICA_PUT, SYNC,
};
use crate::tap::{self, Callback, Kinds, Recording, RtClock, Tap};
use crate::Params;

/// Stores in the ring (node ids `0..STORES`).
pub const STORES: u32 = 4;
/// Cart keys the load spreads over.
pub const KEYS: u64 = 512;
/// `cart-soak`: closed-loop clients.
pub const SOAK_CLIENTS: u32 = 2;
/// `cart-soak`: share of ops that add an item.
pub const SOAK_PUT_PCT: u32 = 50;
/// A store's gossip-round timer tag is `2 << 48` (see `dynamo::node`).
const GOSSIP_TAG_SHIFT: u64 = 48;
const GOSSIP_TAG: u64 = 2;
/// Longest the stores may take to agree once load stops.
const CONVERGE_TIMEOUT: Duration = Duration::from_secs(30);

type Store = StoreNode<CrdtCart>;

/// The ring, built as `quicksand_bench::service::add_crdt_stores` builds
/// it (sibling-squashing CRDT stores under the default `DynamoConfig`,
/// whose full-store anti-entropy is what the workload measures), each
/// store wrapped in timers when traced. Traced and untraced runs share
/// this one path.
fn add_stores(
    b: &mut RuntimeBuilder<ServiceMsg>,
    tap: Option<&Arc<Tap<ServiceMsg>>>,
) -> Vec<NodeId> {
    let cfg = DynamoConfig::default();
    let view = standby_view(STORES, 0);
    let ids: Vec<NodeId> = (0..STORES as usize).map(NodeId).collect();
    for s in 0..STORES {
        let node = Store::new(s, view.clone(), ids.clone(), cfg.clone()).with_sibling_squash();
        assert_eq!(tap::add_node(b, node, tap), ids[s as usize]);
    }
    ids
}

// ------------------------------------------------------------ clients

/// One client's progress after a callback that moved it.
#[derive(Clone, Copy, Debug)]
pub struct Progress {
    /// `ctx.now()` of the callback.
    pub at_us: f64,
    /// The client's completed ops so far.
    pub ops: u64,
    /// Samples in the run-wide `load.get_us` histogram so far.
    pub gets: usize,
    /// Samples in the run-wide `load.put_us` histogram so far.
    pub puts: usize,
}

/// A [`LoadClient`] the benchmark can stop: once `stop` is set, nothing
/// reaches the client any more, so it issues nothing new. The log maps
/// the client's own latency samples onto the clock.
pub struct Closed {
    /// The service's closed-loop client, unchanged.
    pub client: LoadClient,
    stop: Arc<AtomicBool>,
    acked: Arc<AtomicU64>,
    /// Progress after every callback that completed a GET or an op.
    pub log: Vec<Progress>,
}

impl Closed {
    fn note(&mut self, ctx: &mut Context<'_, ServiceMsg>, before: u64) {
        let ops = self.client.ops_done;
        let gets = ctx.metrics().histogram("load.get_us").count();
        let puts = ctx.metrics().histogram("load.put_us").count();
        if self.log.last().is_some_and(|p| p.gets == gets && p.puts == puts) && ops == before {
            return;
        }
        self.acked.fetch_add(ops - before, Ordering::Relaxed);
        self.log.push(Progress { at_us: ctx.now().as_micros() as f64, ops, gets, puts });
    }
}

impl Actor<ServiceMsg> for Closed {
    fn on_start(&mut self, ctx: &mut Context<'_, ServiceMsg>) {
        self.client.on_start(ctx);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, ServiceMsg>, from: NodeId, msg: ServiceMsg) {
        if self.stop.load(Ordering::Relaxed) {
            return;
        }
        let before = self.client.ops_done;
        self.client.on_message(ctx, from, msg);
        self.note(ctx, before);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, ServiceMsg>, t: u64) {
        if self.stop.load(Ordering::Relaxed) {
            return;
        }
        let before = self.client.ops_done;
        self.client.on_timer(ctx, t);
        self.note(ctx, before);
    }
}

// ------------------------------------------------------------ cluster

/// A launched cart cluster and the handles the main thread needs.
struct Cluster {
    rt: Runtime<ServiceMsg>,
    traced: bool,
    tap: Option<Arc<Tap<ServiceMsg>>>,
    stores: Vec<NodeId>,
    clients: Vec<NodeId>,
    stop: Arc<AtomicBool>,
    acked: Arc<AtomicU64>,
}

fn launch(p: &Params) -> std::io::Result<Cluster> {
    let clock = Arc::new(RtClock::default());
    let tap = p.trace.then(|| Tap::new(clock.clone(), p.seed));
    let stop = Arc::new(AtomicBool::new(false));
    let acked = Arc::new(AtomicU64::new(0));
    let mut b = RuntimeBuilder::new().seed(p.seed).telemetry("127.0.0.1:0")?;
    let stores = add_stores(&mut b, tap.as_ref());
    let mut clients = Vec::new();
    for c in 0..SOAK_CLIENTS {
        let client = LoadClient::new(c, stores.clone(), u64::MAX, KEYS, SOAK_PUT_PCT);
        let closed = Closed { client, stop: stop.clone(), acked: acked.clone(), log: Vec::new() };
        clients.push(tap::add_node(&mut b, closed, tap.as_ref()));
    }
    let rt = b.launch_transport(TransportKind::Loopback)?;
    clock.calibrate(&rt);
    Ok(Cluster { rt, traced: p.trace, tap, stores, clients, stop, acked })
}

/// The set-up probe: launch and wait for the first acked op.
pub fn probe(p: &Params) -> std::io::Result<()> {
    let c = launch(p)?;
    crate::first_ack(&c.acked)
}

fn inspect_store<R: Send + 'static>(
    c: &Cluster,
    node: NodeId,
    f: impl FnOnce(&Store) -> R + Send + 'static,
) -> R {
    tap::inspect::<ServiceMsg, Store, R>(&c.rt, c.traced, node, f)
}

fn digest(versions: &[Versioned<CrdtCart>]) -> u64 {
    let mut dots: Vec<(u32, u64)> = versions.iter().map(|v| (v.dot.node, v.dot.counter)).collect();
    dots.sort_unstable();
    let mut h = DefaultHasher::new();
    dots.hash(&mut h);
    h.finish()
}

/// Wait until every key's preference list agrees on its versions.
/// Returns how long that took, or `None` on timeout.
fn converge(c: &Cluster) -> Option<Duration> {
    let n = DynamoConfig::default().n;
    let prefs: Vec<Vec<usize>> = inspect_store(c, c.stores[0], move |s| {
        (0..KEYS)
            .map(|k| s.ring().preference_list(k, n).into_iter().map(|m| m as usize).collect())
            .collect()
    });
    let started = Instant::now();
    loop {
        let digests: Vec<Vec<u64>> = c
            .stores
            .iter()
            .map(|&s| inspect_store(c, s, |n| (0..KEYS).map(|k| digest(n.versions(k))).collect()))
            .collect();
        let agreed = prefs
            .iter()
            .enumerate()
            .all(|(k, owners)| owners.windows(2).all(|w| digests[w[0]][k] == digests[w[1]][k]));
        if agreed {
            return Some(started.elapsed());
        }
        if started.elapsed() > CONVERGE_TIMEOUT {
            return None;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Wait for the ledger to settle every guess; returns the count left.
fn settle(rt: &Runtime<ServiceMsg>) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let open = rt.with_core(|c| c.ledger.open_count());
        if open == 0 || Instant::now() > deadline {
            return open;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// What the main thread observed while the load ran.
#[derive(Default)]
struct Observed {
    meter: Meter,
    scrape_ms: Vec<f64>,
    scrape_errors: Vec<String>,
    max_depth: u64,
}

/// Run the load for warm-up plus the measured span, scraping `/metrics`
/// once a second (and, traced, sampling mailbox depths); then stop the
/// load.
fn drive(c: &Cluster, p: &Params, span: Span) -> Observed {
    let mut o = Observed::default();
    let mut next_scrape = 1e6;
    let addr = c.rt.telemetry_addr();
    let poll = Duration::from_millis(if p.trace { 2 } else { 10 });
    o.meter = outcome::drive(
        || c.rt.now().as_micros() as f64,
        span,
        p.clk_tck,
        poll,
        |now| {
            if let (true, Some(addr)) = (now >= next_scrape, addr) {
                let t = Instant::now();
                match http_get(addr, "/metrics") {
                    Ok((200, _)) => o.scrape_ms.push(t.elapsed().as_secs_f64() * 1e3),
                    other => o.scrape_errors.push(format!("{other:?}")),
                }
                next_scrape += 1e6;
            }
            if p.trace && span.contains(now) {
                for n in 0..c.rt.node_count() {
                    o.max_depth = o.max_depth.max(c.rt.mailbox_depth(NodeId(n)));
                }
            }
        },
    );
    c.stop.store(true, Ordering::Relaxed);
    o
}

/// What quiescing, auditing and tearing down a run leaves behind.
struct Finished {
    report: RuntimeReport<ServiceMsg>,
    converge_ms: f64,
    reconciled: BTreeMap<u64, Cart>,
    max_versions: usize,
    recording: Option<Recording<ServiceMsg>>,
    engine: layers::EngineCounts,
    pref_list_us: Vec<f64>,
}

/// Quiesce, audit and tear down.
fn finish(c: Cluster, out: &mut Outcome) -> Finished {
    let converge_ms = match converge(&c) {
        Some(d) => d.as_secs_f64() * 1e3,
        None => {
            out.audit.push(format!("replicas did not agree within {CONVERGE_TIMEOUT:?}"));
            0.0
        }
    };
    let open = settle(&c.rt);
    out.audited.push(("open_guesses_after_quiescence".into(), open));
    audit::check(&mut out.audit, "open ledger guesses after quiescence", open as usize, ());
    let engine = c.rt.with_core(|core| layers::engine_counts(core));
    let pref_list_us = if c.traced {
        inspect_store(&c, c.stores[0], |s| {
            let n = DynamoConfig::default().n;
            (0..KEYS).map(|k| layers::time_us(|| s.ring().preference_list(k, n))).collect()
        })
    } else {
        Vec::new()
    };
    let recording = c.tap.as_ref().map(|t| t.take());
    let traced = c.traced;
    let stores = c.stores.clone();
    let clients = c.clients.clone();
    let report = c.rt.shutdown();
    let acked: Vec<(u64, u64)> = clients
        .iter()
        .flat_map(|&n| {
            tap::actor::<ServiceMsg, Closed>(&report, traced, n).client.acked_adds.clone()
        })
        .collect();
    let nodes: Vec<&Store> =
        stores.iter().map(|&s| tap::actor::<ServiceMsg, Store>(&report, traced, s)).collect();
    let reconciled: BTreeMap<u64, Cart> =
        (0..KEYS).map(|k| (k, reconciled_cart(&nodes, k))).collect();
    let max_versions =
        (0..KEYS).flat_map(|k| nodes.iter().map(move |n| n.versions(k).len())).max().unwrap_or(0);
    let lost = audit::missing_adds(&acked, &reconciled);
    out.audited.push(("acked_adds".into(), acked.len() as u64));
    out.audited.push(("lost_acked_adds".into(), lost.len() as u64));
    audit::check(
        &mut out.audit,
        "acked adds missing from the reconciled stores",
        lost.len(),
        lost.first(),
    );
    Finished { report, converge_ms, reconciled, max_versions, recording, engine, pref_list_us }
}

// ---------------------------------------------------------- workloads

/// `cart-soak`: the closed loop of `LoadClient`s on loopback.
pub fn soak(p: &Params) -> Result<Outcome, String> {
    let c = launch(p).map_err(|e| format!("launch: {e}"))?;
    let span = p.span();
    let seen = drive(&c, p, span);
    let clients = c.clients.clone();
    let traced = c.traced;
    let acked_total = c.acked.load(Ordering::Relaxed);
    let mut out = Outcome { steal_frac: seen.meter.steal_frac, ..Outcome::default() };
    let mut f = finish(c, &mut out);
    if !seen.scrape_errors.is_empty() {
        out.audit.push(format!("/metrics scrapes failed: {:?}", seen.scrape_errors));
    }
    let closed: Vec<&Closed> =
        clients.iter().map(|&n| tap::actor::<ServiceMsg, Closed>(&f.report, traced, n)).collect();
    let failed: u64 = closed
        .iter()
        .map(|c| c.client.get_failures + c.client.put_failures + c.client.stuck_retries)
        .sum();
    out.failed = failed;
    out.attempted = closed.iter().map(|c| c.client.ops_done).sum::<u64>() + failed;
    let retries = f.report.core.metrics.counter("load.retries") as f64;

    // Each client's completions, and the run-wide sample index reached
    // at each instant, put every latency sample on the clock.
    let mut log: Vec<(f64, u64, usize, usize)> = Vec::new();
    for c in &closed {
        let mut prev = 0;
        for p in &c.log {
            log.push((p.at_us, p.ops - prev, p.gets, p.puts));
            prev = p.ops;
        }
    }
    log.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Every latency sample lands at the first callback whose run-wide
    // count includes it.
    let gets: Vec<f64> = f.report.core.metrics.histogram("load.get_us").values().collect();
    let puts: Vec<f64> = f.report.core.metrics.histogram("load.put_us").values().collect();
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let (mut g, mut w) = (0, 0);
    for e in &log {
        while g < e.2.min(gets.len()) {
            reads.push((e.0, gets[g] / 1e3));
            g += 1;
        }
        while w < e.3.min(puts.len()) {
            writes.push((e.0, puts[w] / 1e3));
            w += 1;
        }
    }
    let done_us: Vec<f64> =
        log.iter().flat_map(|e| std::iter::repeat_n(e.0, e.1 as usize)).collect();

    if !p.trace {
        let series = Series {
            done_us,
            reads,
            writes,
            cpu_secs: seen.meter.cpu_secs,
            peak_rss_mb: seen.meter.rss_mb,
        };
        outcome::end_to_end(&mut out, series, span)?;
        return Ok(out);
    }

    // Traced: the per-layer figures.
    let rec = f.recording.take().expect("traced run records");
    let store_nodes: Vec<u16> = (0..STORES as u16).collect();
    let client_of = |req: u64| STORES as u16 + (req >> 32) as u16;
    // A closed-loop client sends its next request as its callback
    // returns: the request left at the client's last callback exit.
    let mut exits: HashMap<u16, Vec<f64>> = HashMap::new();
    for cb in &rec.callbacks {
        if !store_nodes.contains(&cb.node) {
            exits.entry(cb.node).or_default().push(cb.exit_us());
        }
    }
    let sent_at = |cb: &Callback| -> Option<f64> {
        let e = exits.get(&client_of(cb.key))?;
        let i = e.partition_point(|&x| x <= cb.entry_us());
        (i > 0).then(|| e[i - 1])
    };
    let reply_at: HashMap<(u8, u64), f64> = rec
        .callbacks
        .iter()
        .filter(|cb| !store_nodes.contains(&cb.node) && (cb.kind == GET_OK || cb.kind == PUT_OK))
        .map(|cb| ((cb.kind, cb.key), cb.at_us))
        .collect();
    let reqs: Vec<ReqSpan> = layers::in_span(&rec.callbacks, span)
        .filter(|cb| {
            store_nodes.contains(&cb.node) && (cb.kind == CLIENT_GET || cb.kind == CLIENT_PUT)
        })
        .filter_map(|cb| {
            let start = sent_at(cb)?;
            let reply = if cb.kind == CLIENT_GET { GET_OK } else { PUT_OK };
            let end = *reply_at.get(&(reply, cb.key))?;
            Some(ReqSpan {
                name: if cb.kind == CLIENT_GET { "get" } else { "put" },
                key: cb.key,
                start_us: start,
                end_us: end,
                parts: vec![
                    ("runtime.queue", start, cb.entry_us()),
                    ("dynamo.coordinate", cb.entry_us(), cb.exit_us()),
                    ("dynamo.quorum+reply", cb.exit_us(), end),
                ],
            })
        })
        .collect();
    out.ops_per_s = outcome::rate(&done_us, span);
    cart_layers(&mut out, &f, &rec, span, &reqs, seen.max_depth, acked_total);
    // About one scrape a second: too few for the tail rule, so the
    // median and the maximum of what was seen.
    out.count("telemetry.scrape_ms", seen.scrape_ms.len());
    out.put("telemetry.scrape_ms.p50", "ms", stats::median(&seen.scrape_ms));
    out.put("telemetry.scrape_ms.max", "ms", stats::max(&seen.scrape_ms));
    out.put("client.retry_ratio", "ratio", retries / acked_total.max(1) as f64);
    finish_layers(&mut out, &f, &rec, &reqs, span, seen.meter.rss_mb, acked_total);
    Ok(out)
}

/// Runtime, engine, dynamo and crdt figures of a traced cart run.
fn cart_layers(
    out: &mut Outcome,
    f: &Finished,
    rec: &Recording<ServiceMsg>,
    span: Span,
    reqs: &[ReqSpan],
    max_depth: u64,
    acked_total: u64,
) {
    let cbs = &rec.callbacks;
    let stores: Vec<u16> = (0..STORES as u16).collect();
    layers::runtime_figures(out, cbs, span);
    let mut queue = layers::segment_samples(reqs, "runtime.queue");
    out.count("runtime.queue_us", queue.len());
    out.put("runtime.queue_us.p50", "us", stats::percentile_or_zero(&mut queue, 50.0));
    out.put("runtime.queue_us.p99", "us", stats::percentile_or_zero(&mut queue, 99.0));
    out.put("runtime.mailbox_depth.max", "count", max_depth as f64);
    layers::engine_figures(out, &f.engine, acked_total);
    layers::callback_p50s(
        out,
        "dynamo",
        cbs,
        span,
        &stores,
        &[
            ("client_get", CLIENT_GET),
            ("client_put", CLIENT_PUT),
            ("replica_get", REPLICA_GET),
            ("replica_put", REPLICA_PUT),
            ("sync", SYNC),
        ],
    );
    // Store timers are the anti-entropy/membership round (tag kind 2 in
    // the store's timer tags) and per-request deadlines; `timer` is the
    // round, which builds the full-store push.
    let store_cbs = || layers::in_span(cbs, span).filter(|c| stores.contains(&c.node));
    let is_round =
        |c: &Callback| c.kind == tap::KIND_TIMER && c.key >> GOSSIP_TAG_SHIFT == GOSSIP_TAG;
    let mut rounds: Vec<f64> = store_cbs().filter(|c| is_round(c)).map(|c| c.dur_us).collect();
    out.count("dynamo.cb_us.timer", rounds.len());
    out.put("dynamo.cb_us.timer.p50", "us", stats::percentile_or_zero(&mut rounds, 50.0));
    let all: f64 = store_cbs().map(|c| c.dur_us).sum();
    let gossip: f64 = store_cbs().filter(|c| c.kind == SYNC || is_round(c)).map(|c| c.dur_us).sum();
    out.put("dynamo.gossip_share", "ratio", stats::ratio(gossip, all));
    out.put("dynamo.versions_per_key.max", "count", f.max_versions as f64);
    out.put("dynamo.converge_ms", "ms", f.converge_ms);
    let puts = cbs.iter().filter(|c| c.kind == CLIENT_PUT && stores.contains(&c.node)).count();
    let sloppy = f.report.core.metrics.counter("dynamo.sloppy_writes") as f64;
    out.put("dynamo.sloppy_ratio", "ratio", stats::ratio(sloppy, puts as f64));
    let items = f.reconciled.values().map(|c| c.len()).max().unwrap_or(0);
    out.put("crdt.cart_items.max", "count", items as f64);
    // Replay CrdtCart::merge on carts sampled from the run, each merged
    // into the final reconciled state of its key.
    let finals: BTreeMap<u64, CrdtCart> = (0..KEYS)
        .map(|k| {
            let mut joined = CrdtCart::new();
            for n in 0..STORES as usize {
                for v in tap::actor::<ServiceMsg, Store>(&f.report, true, NodeId(n)).versions(k) {
                    joined.merge(&v.value);
                }
            }
            (k, joined)
        })
        .collect();
    let mut merges: Vec<f64> = rec
        .sample
        .items
        .iter()
        .filter_map(|m| match m {
            DynamoMsg::ClientPut { key, value, .. } => Some((*key, value)),
            DynamoMsg::GetOk { key, versions, .. } => versions.first().map(|v| (*key, &v.value)),
            _ => None,
        })
        .map(|(k, v)| {
            let base = finals.get(&k).cloned().unwrap_or_default();
            layers::time_us(|| base.clone().joined(v)) - layers::time_us(|| base.clone())
        })
        .map(|us| us.max(0.0))
        .collect();
    out.count("crdt.merge_us", merges.len());
    out.put("crdt.merge_us.p50", "us", stats::percentile_or_zero(&mut merges, 50.0));
}

/// Wire and membership replays, process figures, the table and trace.
fn finish_layers(
    out: &mut Outcome,
    f: &Finished,
    rec: &Recording<ServiceMsg>,
    reqs: &[ReqSpan],
    span: Span,
    rss_mb: f64,
    acked_total: u64,
) {
    // Replay WireCodec on the sampled messages: encode and decode time
    // and frame size; bytes per op scale the sample's mean frame up to
    // every message delivered. On loopback no message is encoded, so
    // these are what the TCP transport would pay for the same traffic.
    let mut sizes = Vec::new();
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for m in &rec.sample.items {
        let bytes = to_bytes(m);
        sizes.push(bytes.len() as f64);
        enc.push(layers::time_us(|| to_bytes(m)));
        dec.push(layers::time_us(|| ServiceMsg::decode(&mut bytes.as_slice()).is_ok()));
    }
    let mean = sizes.iter().sum::<f64>() / sizes.len().max(1) as f64;
    out.put(
        "wire.bytes_per_op",
        "bytes",
        mean * rec.sample.seen() as f64 / acked_total.max(1) as f64,
    );
    out.count("wire", sizes.len());
    out.put("wire.frame_bytes.p99", "bytes", stats::percentile_or_zero(&mut sizes, 99.0));
    out.put("wire.encode_us.p50", "us", stats::percentile_or_zero(&mut enc, 50.0));
    out.put("wire.decode_us.p50", "us", stats::percentile_or_zero(&mut dec, 50.0));
    let mut pref = f.pref_list_us.clone();
    out.count("membership.pref_list_us", pref.len());
    out.put("membership.pref_list_us.p50", "us", stats::percentile_or_zero(&mut pref, 50.0));
    layers::process_figures(out, rss_mb, acked_total);
    out.table = Some(layers::breakdown(reqs));
    out.chrome_trace = Some(layers::chrome_trace(
        &rec.callbacks,
        <ServiceMsg as Kinds>::KINDS,
        |n| if n < STORES as u16 { format!("store n{n}") } else { format!("client n{n}") },
        reqs,
        span,
    ));
}
