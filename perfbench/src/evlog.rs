//! `evlog-replicated`: one producer with a fixed window of appends in
//! flight against a leader and two replicas under
//! `AckPolicy::OnReplicate(2)`, file-backed segments, a 5 ms
//! group-commit bus, and one consumer group reading the records back.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use eventlog::{AckPolicy, BrokerConfig, Consumer, DirKind, EvMsg, EventLogNode, LogConfig};
use quicksand_core::uniquifier::{Uniquifier, UniquifierSource};
use quicksand_runtime::{Runtime, RuntimeBuilder};
use rand::RngCore;
use sim::{Actor, Context, NodeId, SimDuration, SimRng};

use crate::audit;
use crate::layers::{self, ReqSpan};
use crate::outcome::{self, Outcome, Series};
use crate::stats;
use crate::tap::{self, evlog_kind, Kinds, RtClock, Tap};
use crate::Params;

/// Appends the producer keeps in flight.
pub const WINDOW: usize = 64;
/// Bytes of user payload per append.
pub const PAYLOAD: usize = 64;
/// Replicas that must hold a record before the leader acks it.
pub const REPLICAS: u32 = 2;
/// Group-commit bus period.
pub const FLUSH: SimDuration = SimDuration::from_millis(5);
/// How often the consumer polls the leader: once per bus period. With a
/// 2 ms poll the read tail's phase against the bus shifted from run to
/// run (p99 spread 29% across ten seeds); at the bus period it is 4%.
const POLL: SimDuration = SimDuration::from_millis(5);
/// An append unacked this long is sent again under the same id.
const RETRY: SimDuration = SimDuration::from_millis(200);
const TAG_RETRY: u64 = 1;
const GROUP: &str = "perfbench";

/// One append the producer issued.
#[derive(Clone, Debug)]
pub struct Append {
    /// Its uniquifier.
    pub id: Uniquifier,
    /// When it was first sent (host clock, runtime axis).
    pub sent_us: f64,
    /// When its ack arrived.
    pub acked_us: Option<f64>,
}

/// A producer with a fixed window in flight that the benchmark can stop:
/// after `stop` it issues nothing new but still retries what is in
/// flight until acked.
pub struct Appender {
    leader: NodeId,
    ids: UniquifierSource,
    rng: SimRng,
    clock: Arc<RtClock>,
    stop: Arc<AtomicBool>,
    acked: Arc<AtomicU64>,
    in_flight: HashMap<Uniquifier, (usize, Vec<u8>, f64)>,
    /// Every append issued, in issue order.
    pub appends: Vec<Append>,
    /// Appends sent again after the retry timeout.
    pub retries: u64,
}

impl Appender {
    fn new(
        leader: NodeId,
        seed: u64,
        clock: Arc<RtClock>,
        stop: Arc<AtomicBool>,
        acked: Arc<AtomicU64>,
    ) -> Self {
        Appender {
            leader,
            ids: UniquifierSource::new(seed),
            rng: SimRng::new(seed),
            clock,
            stop,
            acked,
            in_flight: HashMap::new(),
            appends: Vec::new(),
            retries: 0,
        }
    }

    /// Nothing is in flight.
    pub fn drained(&self) -> bool {
        self.in_flight.is_empty()
    }

    fn host_now(&self, ctx: &Context<'_, EvMsg>) -> f64 {
        self.clock.micros(Instant::now()).unwrap_or(ctx.now().as_micros() as f64)
    }

    fn refill(&mut self, ctx: &mut Context<'_, EvMsg>) {
        while !self.stop.load(Ordering::Relaxed) && self.in_flight.len() < WINDOW {
            let id = self.ids.next_id();
            let mut payload = vec![0u8; PAYLOAD];
            for chunk in payload.chunks_mut(8) {
                chunk.copy_from_slice(&self.rng.next_u64().to_le_bytes()[..chunk.len()]);
            }
            let me = ctx.me();
            ctx.send(self.leader, EvMsg::Append { id, payload: payload.clone(), resp_to: me });
            let sent_us = self.host_now(ctx);
            self.in_flight.insert(id, (self.appends.len(), payload, sent_us));
            self.appends.push(Append { id, sent_us, acked_us: None });
        }
    }
}

impl Actor<EvMsg> for Appender {
    fn on_start(&mut self, ctx: &mut Context<'_, EvMsg>) {
        self.refill(ctx);
        ctx.set_timer(RETRY, TAG_RETRY);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, EvMsg>, _from: NodeId, msg: EvMsg) {
        if let EvMsg::Ack { id, .. } = msg {
            if let Some((idx, _, _)) = self.in_flight.remove(&id) {
                self.appends[idx].acked_us = Some(ctx.now().as_micros() as f64);
                self.acked.fetch_add(1, Ordering::Relaxed);
                self.refill(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, EvMsg>, tag: u64) {
        if tag != TAG_RETRY {
            return;
        }
        let now = self.host_now(ctx);
        let me = ctx.me();
        for (id, (_, payload, sent)) in self.in_flight.iter_mut() {
            if now - *sent >= RETRY.as_micros() as f64 {
                ctx.send(
                    self.leader,
                    EvMsg::Append { id: *id, payload: payload.clone(), resp_to: me },
                );
                *sent = now;
                self.retries += 1;
            }
        }
        ctx.set_timer(RETRY, TAG_RETRY);
    }
}

/// The consumer-group member, unchanged, plus when each record first
/// reached it.
pub struct Reader {
    /// The event log's consumer.
    pub consumer: Consumer,
    /// `received_us[i]`: when `consumer.seen[i]` arrived.
    pub received_us: Vec<f64>,
}

impl Actor<EvMsg> for Reader {
    fn on_start(&mut self, ctx: &mut Context<'_, EvMsg>) {
        self.consumer.on_start(ctx);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, EvMsg>, from: NodeId, msg: EvMsg) {
        self.consumer.on_message(ctx, from, msg);
        let now = ctx.now().as_micros() as f64;
        let new = self.consumer.seen.len() - self.received_us.len();
        self.received_us.extend(std::iter::repeat_n(now, new));
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, EvMsg>, tag: u64) {
        self.consumer.on_timer(ctx, tag);
    }
}

const PRODUCER: NodeId = NodeId(0);
const LEADER: NodeId = NodeId(1);
const CONSUMER: NodeId = NodeId(2 + REPLICAS as usize);

type Node = EventLogNode<DirKind>;

struct Cluster {
    rt: Runtime<EvMsg>,
    traced: bool,
    tap: Option<Arc<Tap<EvMsg>>>,
    stop: Arc<AtomicBool>,
    acked: Arc<AtomicU64>,
    dir: PathBuf,
}

fn launch(p: &Params) -> std::io::Result<Cluster> {
    let dir = p.out.join("tmp").join(format!("evlog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let clock = Arc::new(RtClock::default());
    let tap = p.trace.then(|| Tap::new(clock.clone(), p.seed));
    let stop = Arc::new(AtomicBool::new(false));
    let acked = Arc::new(AtomicU64::new(0));
    let cfg = BrokerConfig {
        log: LogConfig::default(),
        policy: AckPolicy::OnReplicate(REPLICAS),
        flush_every: FLUSH,
        compact_every: 0,
    };
    let mut b = RuntimeBuilder::new().seed(p.seed);
    let producer = Appender::new(LEADER, p.seed, clock.clone(), stop.clone(), acked.clone());
    assert_eq!(tap::add_node(&mut b, producer, tap.as_ref()), PRODUCER);
    let replicas: Vec<NodeId> = (0..REPLICAS as usize).map(|i| NodeId(2 + i)).collect();
    let leader = Node::leader(DirKind::new(&dir.join("leader")), cfg.clone(), replicas.clone());
    assert_eq!(tap::add_node(&mut b, leader, tap.as_ref()), LEADER);
    for (i, &r) in replicas.iter().enumerate() {
        let replica = Node::replica(DirKind::new(&dir.join(format!("replica-{i}"))), cfg.clone());
        assert_eq!(tap::add_node(&mut b, replica, tap.as_ref()), r);
    }
    let reader = Reader { consumer: Consumer::new(LEADER, GROUP, POLL), received_us: Vec::new() };
    assert_eq!(tap::add_node(&mut b, reader, tap.as_ref()), CONSUMER);
    let rt = b.launch();
    clock.calibrate(&rt);
    Ok(Cluster { rt, traced: p.trace, tap, stop, acked, dir })
}

/// The set-up probe: launch and wait for the first acked append.
pub fn probe(p: &Params) -> std::io::Result<()> {
    let c = launch(p)?;
    crate::first_ack(&c.acked)
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Leader's appended records minus each replica's durable records,
/// summed over partitions; the largest of the replicas.
fn replica_lag(c: &Cluster) -> u64 {
    let sum = |durable: bool| {
        move |n: &Node| -> u64 {
            let log = n.log();
            (0..log.partitions())
                .map(|p| if durable { log.durable_next(p) } else { log.next_offset(p) })
                .sum()
        }
    };
    let head = tap::inspect::<EvMsg, Node, u64>(&c.rt, c.traced, LEADER, sum(false));
    (0..REPLICAS as usize)
        .map(|i| tap::inspect::<EvMsg, Node, u64>(&c.rt, c.traced, NodeId(2 + i), sum(true)))
        .map(|d| head.saturating_sub(d))
        .max()
        .unwrap_or(0)
}

/// `evlog-replicated`.
pub fn replicated(p: &Params) -> Result<Outcome, String> {
    let c = launch(p).map_err(|e| format!("launch: {e}"))?;
    let span = p.span();
    let mut max_depth = 0;
    let mut max_lag = 0;
    let poll = Duration::from_millis(if p.trace { 5 } else { 10 });
    let meter = outcome::drive(
        || c.rt.now().as_micros() as f64,
        span,
        p.clk_tck,
        poll,
        |now| {
            if p.trace && span.contains(now) {
                for n in 0..c.rt.node_count() {
                    max_depth = max_depth.max(c.rt.mailbox_depth(NodeId(n)));
                }
                max_lag = max_lag.max(replica_lag(&c));
            }
        },
    );
    c.stop.store(true, Ordering::Relaxed);

    // Quiesce: the window drains, then the group reads every acked append.
    let traced = c.traced;
    let deadline = Instant::now() + Duration::from_secs(20);
    let caught_up = loop {
        let drained =
            tap::inspect::<EvMsg, Appender, bool>(&c.rt, traced, PRODUCER, |a| a.drained());
        let acked = c.acked.load(Ordering::Relaxed) as usize;
        let read = tap::inspect::<EvMsg, Reader, usize>(&c.rt, traced, CONSUMER, |r| {
            r.consumer.seen.len()
        });
        if drained && read >= acked {
            break true;
        }
        if Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let acked_total = c.acked.load(Ordering::Relaxed);
    let engine = c.rt.with_core(|core| layers::engine_counts(core));
    let open = c.rt.with_core(|core| core.ledger.open_count());
    let recording = c.tap.as_ref().map(|t| t.take());
    let dir = c.dir.clone();
    let report = c.rt.shutdown();
    let producer = tap::actor::<EvMsg, Appender>(&report, traced, PRODUCER);
    let reader = tap::actor::<EvMsg, Reader>(&report, traced, CONSUMER);
    let leader = tap::actor::<EvMsg, Node>(&report, traced, LEADER);

    let mut out = Outcome { steal_frac: meter.steal_frac, ..Outcome::default() };
    let acked_ids: Vec<Uniquifier> =
        producer.appends.iter().filter(|a| a.acked_us.is_some()).map(|a| a.id).collect();
    let durable: HashSet<Uniquifier> = leader.durable_ids().into_iter().collect();
    let seen: HashSet<Uniquifier> = reader.consumer.seen.iter().copied().collect();
    let not_in_log = audit::missing_appends(&acked_ids, &durable);
    let not_read = audit::missing_appends(&acked_ids, &seen);
    let unacked = producer.appends.len() - acked_ids.len();
    out.audited.push(("acked_appends".into(), acked_ids.len() as u64));
    out.audited.push(("acked_appends_missing_from_leader".into(), not_in_log.len() as u64));
    out.audited.push(("acked_appends_never_consumed".into(), not_read.len() as u64));
    out.audited.push(("open_guesses_after_quiescence".into(), open));
    audit::check(
        &mut out.audit,
        "acked appends missing from the leader's log",
        not_in_log.len(),
        not_in_log.first(),
    );
    audit::check(
        &mut out.audit,
        "acked appends the consumer group never received",
        not_read.len(),
        not_read.first(),
    );
    audit::check(&mut out.audit, "open ledger guesses after quiescence", open as usize, ());
    if !caught_up {
        out.audit.push("the producer window or the consumer did not drain within 20s".into());
    }
    out.attempted = producer.appends.len() as u64;
    out.failed = unacked as u64;

    let received: HashMap<Uniquifier, f64> =
        reader.consumer.seen.iter().copied().zip(reader.received_us.iter().copied()).collect();
    let in_span: Vec<&Append> =
        producer.appends.iter().filter(|a| span.contains(a.sent_us)).collect();
    let done_us: Vec<f64> = producer.appends.iter().filter_map(|a| a.acked_us).collect();
    if !p.trace {
        let series = Series {
            done_us,
            reads: producer
                .appends
                .iter()
                .filter_map(|a| Some((a.sent_us, (received.get(&a.id)? - a.sent_us) / 1e3)))
                .collect(),
            writes: producer
                .appends
                .iter()
                .filter_map(|a| Some((a.sent_us, (a.acked_us? - a.sent_us) / 1e3)))
                .collect(),
            cpu_secs: meter.cpu_secs,
            peak_rss_mb: meter.rss_mb,
        };
        remove(&dir);
        outcome::end_to_end(&mut out, series, span)?;
        return Ok(out);
    }

    let rec = recording.expect("traced run records");
    let cbs = &rec.callbacks;
    let leader_cb: HashMap<u64, tap::Callback> = layers::in_span(cbs, span)
        .filter(|c| c.node == LEADER.0 as u16 && c.kind == evlog_kind::APPEND)
        .map(|c| (c.key, *c))
        .collect();
    let reqs: Vec<ReqSpan> = in_span
        .iter()
        .filter_map(|a| {
            let key = a.id.as_raw() as u64;
            let cb = leader_cb.get(&key)?;
            let acked = a.acked_us?;
            Some(ReqSpan {
                name: "append",
                key,
                start_us: a.sent_us,
                end_us: acked,
                parts: vec![
                    ("runtime.queue", a.sent_us, cb.entry_us()),
                    ("eventlog.append", cb.entry_us(), cb.exit_us()),
                    ("eventlog.fsync+replicate+ack", cb.exit_us(), acked),
                ],
            })
        })
        .collect();
    out.ops_per_s = outcome::rate(&done_us, span);
    layers::runtime_figures(&mut out, cbs, span);
    let mut queue = layers::segment_samples(&reqs, "runtime.queue");
    out.count("runtime.queue_us", queue.len());
    out.put("runtime.queue_us.p50", "us", stats::percentile_or_zero(&mut queue, 50.0));
    out.put("runtime.queue_us.p99", "us", stats::percentile_or_zero(&mut queue, 99.0));
    out.put("runtime.mailbox_depth.max", "count", max_depth as f64);
    layers::engine_figures(&mut out, &engine, acked_total);
    layers::callback_p50s(
        &mut out,
        "eventlog",
        cbs,
        span,
        &[LEADER.0 as u16],
        &[("append", evlog_kind::APPEND), ("flush", tap::KIND_TIMER), ("fetch", evlog_kind::FETCH)],
    );
    let m = &report.core.metrics;
    let appends = m.counter("eventlog.appends") as f64;
    out.put(
        "eventlog.appends_per_fsync",
        "ratio",
        stats::ratio(appends, m.counter("eventlog.fsyncs") as f64),
    );
    let stored: u64 = (1..=1 + REPLICAS as usize)
        .map(|n| tap::actor::<EvMsg, Node>(&report, traced, NodeId(n)).log().byte_len())
        .sum();
    out.put(
        "eventlog.bytes_per_user_byte",
        "ratio",
        stats::ratio(stored as f64, appends * PAYLOAD as f64),
    );
    out.put("eventlog.replica_lag.max", "count", max_lag as f64);
    let producer = tap::actor::<EvMsg, Appender>(&report, traced, PRODUCER);
    out.put(
        "client.retry_ratio",
        "ratio",
        stats::ratio(producer.retries as f64, producer.appends.len() as f64),
    );
    layers::process_figures(&mut out, meter.rss_mb, acked_total);
    out.table = Some(layers::breakdown(&reqs));
    out.chrome_trace = Some(layers::chrome_trace(
        cbs,
        <EvMsg as Kinds>::KINDS,
        |n| match n {
            0 => "producer".into(),
            1 => "leader".into(),
            n if n as usize == CONSUMER.0 => "consumer".into(),
            n => format!("replica n{n}"),
        },
        &reqs,
        span,
    ));
    remove(&dir);
    Ok(out)
}
