//! Layer instrumentation from outside the program: a wrapper actor that
//! times each callback of the actor it holds, and the recorder every
//! wrapper of one run shares.
//!
//! Nothing here changes what the wrapped actor does. The wrapper reads
//! the host clock at callback entry and exit and notes the message kind
//! and request key. The engine-lock wait falls out of the runtime's own
//! contract: it reads `ctx.now()` *before* it locks the engine core, so
//! the host clock at callback entry minus `ctx.now()` is the time the
//! delivery spent waiting for the lock (plus the runtime's delivery
//! bookkeeping, which runs under the same lock).

use std::marker::PhantomData;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use cart::CrdtCart;
use dynamo::DynamoMsg;
use eventlog::EvMsg;
use quicksand_runtime::{Runtime, RuntimeBuilder, RuntimeReport};
use rand::RngCore;
use sim::{Actor, Context, NodeId, SimRng, SimTime};

/// Kind index of `on_start` in every kind table.
pub const KIND_START: u8 = 0;
/// Kind index of `on_timer` in every kind table.
pub const KIND_TIMER: u8 = 1;

/// Messages the wrapper can classify: a kind index into [`Kinds::KINDS`]
/// and the request key that ties spans of one request together.
pub trait Kinds {
    /// Kind names; indices 0 and 1 are `start` and `timer`.
    const KINDS: &'static [&'static str];
    /// `(kind index, request key)` of this message (key 0 if none).
    fn kind(&self) -> (u8, u64);
}

/// Kind indices of [`DynamoMsg`] in its [`Kinds::KINDS`] table.
pub mod dynamo_kind {
    /// `ClientGet` at a coordinator.
    pub const CLIENT_GET: u8 = 2;
    /// `ClientPut` at a coordinator.
    pub const CLIENT_PUT: u8 = 3;
    /// `GetOk` at a client.
    pub const GET_OK: u8 = 4;
    /// `PutOk` at a client.
    pub const PUT_OK: u8 = 5;
    /// `ReplicaGet` at a replica.
    pub const REPLICA_GET: u8 = 7;
    /// `ReplicaPut` at a replica.
    pub const REPLICA_PUT: u8 = 9;
    /// Anti-entropy: `SyncPush` or `SyncDigest`.
    pub const SYNC: u8 = 11;
}

impl Kinds for DynamoMsg<CrdtCart> {
    const KINDS: &'static [&'static str] = &[
        "start",
        "timer",
        "client_get",
        "client_put",
        "get_ok",
        "put_ok",
        "failed",
        "replica_get",
        "replica_get_resp",
        "replica_put",
        "replica_put_ack",
        "sync",
        "hint",
        "membership",
    ];
    fn kind(&self) -> (u8, u64) {
        use dynamo_kind::*;
        match self {
            DynamoMsg::ClientGet { req, .. } => (CLIENT_GET, *req),
            DynamoMsg::ClientPut { req, .. } => (CLIENT_PUT, *req),
            DynamoMsg::GetOk { req, .. } => (GET_OK, *req),
            DynamoMsg::PutOk { req } => (PUT_OK, *req),
            DynamoMsg::GetFailed { req } | DynamoMsg::PutFailed { req } => (6, *req),
            DynamoMsg::ReplicaGet { req, .. } => (REPLICA_GET, *req),
            DynamoMsg::ReplicaGetResp { req, .. } => (8, *req),
            DynamoMsg::ReplicaPut { req, .. } => (REPLICA_PUT, req.unwrap_or(0)),
            DynamoMsg::ReplicaPutAck { req } => (10, *req),
            DynamoMsg::SyncPush { .. } | DynamoMsg::SyncDigest { .. } => (SYNC, 0),
            DynamoMsg::HintDeliver { hint_id, .. } | DynamoMsg::HintAck { hint_id } => {
                (12, *hint_id)
            }
            DynamoMsg::CtlJoin
            | DynamoMsg::CtlLeave
            | DynamoMsg::ViewGossip { .. }
            | DynamoMsg::TransferKeys { .. }
            | DynamoMsg::TransferAck { .. } => (13, 0),
        }
    }
}

/// Kind indices of [`EvMsg`] in its [`Kinds::KINDS`] table.
pub mod evlog_kind {
    /// `Append` at the leader.
    pub const APPEND: u8 = 2;
    /// `Fetch` at the leader.
    pub const FETCH: u8 = 6;
}

impl Kinds for EvMsg {
    const KINDS: &'static [&'static str] = &[
        "start",
        "timer",
        "append",
        "ack",
        "replicate",
        "replicate_ack",
        "fetch",
        "fetch_resp",
        "commit",
    ];
    fn kind(&self) -> (u8, u64) {
        match self {
            EvMsg::Append { id, .. } => (evlog_kind::APPEND, id.as_raw() as u64),
            EvMsg::Ack { id, .. } => (3, id.as_raw() as u64),
            EvMsg::Replicate { batch, .. } => (4, *batch),
            EvMsg::ReplicateAck { batch, .. } => (5, *batch),
            EvMsg::Fetch { .. } => (evlog_kind::FETCH, 0),
            EvMsg::FetchResp { .. } => (7, 0),
            EvMsg::Commit { .. } => (8, 0),
        }
    }
}

/// The runtime's clock read from outside: the runtime's epoch estimated
/// once after launch, so host instants map onto the `ctx.now()` axis.
#[derive(Default)]
pub struct RtClock {
    epoch: OnceLock<Instant>,
}

impl RtClock {
    /// Pin the epoch against a running runtime. `rt.now()` truncates to
    /// whole microseconds, so the estimate is good to about 1 µs.
    pub fn calibrate<M: Send + 'static>(&self, rt: &Runtime<M>) {
        let before = Instant::now();
        let now = rt.now();
        let _ = self.epoch.set(before - Duration::from_micros(now.as_micros()));
    }

    /// `at` on the runtime axis in microseconds (`None` before calibration).
    pub fn micros(&self, at: Instant) -> Option<f64> {
        self.epoch.get().map(|e| at.saturating_duration_since(*e).as_secs_f64() * 1e6)
    }
}

/// One timed callback.
#[derive(Clone, Copy, Debug)]
pub struct Callback {
    /// The node that ran it.
    pub node: u16,
    /// Index into the message type's [`Kinds::KINDS`].
    pub kind: u8,
    /// Request key of the message (0 if none).
    pub key: u64,
    /// `ctx.now()`: when the runtime picked the delivery up, before the
    /// engine lock.
    pub at_us: f64,
    /// Engine-lock wait: callback entry minus `at_us`.
    pub wait_us: f64,
    /// Callback duration.
    pub dur_us: f64,
}

impl Callback {
    /// Host time the callback started, on the runtime axis.
    pub fn entry_us(&self) -> f64 {
        self.at_us + self.wait_us
    }
    /// Host time the callback returned, on the runtime axis.
    pub fn exit_us(&self) -> f64 {
        self.entry_us() + self.dur_us
    }
}

/// Messages kept for replaying public functions after the run: a
/// uniform reservoir over every delivered message.
pub struct Reservoir<M> {
    cap: usize,
    seen: u64,
    rng: SimRng,
    /// The sampled messages.
    pub items: Vec<M>,
}

impl<M: Clone> Reservoir<M> {
    fn new(cap: usize, seed: u64) -> Self {
        Reservoir { cap, seen: 0, rng: SimRng::new(seed), items: Vec::new() }
    }

    fn offer(&mut self, msg: &M) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(msg.clone());
        } else {
            let slot = self.rng.next_u64() % self.seen;
            if (slot as usize) < self.cap {
                self.items[slot as usize] = msg.clone();
            }
        }
    }

    /// Messages offered in total.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// What every wrapper of one run records into.
pub struct Recording<M> {
    /// Every timed callback, in lock order.
    pub callbacks: Vec<Callback>,
    /// Uniform sample of delivered messages.
    pub sample: Reservoir<M>,
}

/// The shared recorder. Callbacks are serialized by the runtime's
/// engine lock, so this mutex is never contended by wrappers.
pub struct Tap<M> {
    /// The runtime's clock, read from outside.
    pub clock: Arc<RtClock>,
    rec: Mutex<Recording<M>>,
}

/// Messages the replay reservoir keeps.
const RESERVOIR: usize = 4096;

impl<M: Clone> Tap<M> {
    /// A recorder on `clock`, its reservoir seeded by `seed`.
    pub fn new(clock: Arc<RtClock>, seed: u64) -> Arc<Self> {
        Arc::new(Tap {
            clock,
            rec: Mutex::new(Recording {
                callbacks: Vec::new(),
                sample: Reservoir::new(RESERVOIR, seed),
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Recording<M>> {
        self.rec.lock().expect("a wrapper panicked while recording")
    }

    /// Take the recording out at the end of a run.
    pub fn take(&self) -> Recording<M> {
        let mut rec = self.lock();
        let sample = std::mem::replace(&mut rec.sample, Reservoir::new(0, 0));
        Recording { callbacks: std::mem::take(&mut rec.callbacks), sample }
    }
}

/// A wrapper actor that times each callback of `inner`.
pub struct Timed<A, M> {
    /// The wrapped actor, unchanged.
    pub inner: A,
    tap: Arc<Tap<M>>,
    _msg: PhantomData<fn(M)>,
}

impl<A, M> Timed<A, M> {
    /// Wrap `inner`, recording into `tap`.
    pub fn new(inner: A, tap: Arc<Tap<M>>) -> Self {
        Timed { inner, tap, _msg: PhantomData }
    }
}

impl<A: Actor<M>, M: Kinds + Clone + 'static> Timed<A, M> {
    fn timed(
        &mut self,
        ctx: &mut Context<'_, M>,
        kind: u8,
        key: u64,
        f: impl FnOnce(&mut A, &mut Context<'_, M>),
    ) {
        let entry = Instant::now();
        f(&mut self.inner, ctx);
        let dur_us = entry.elapsed().as_secs_f64() * 1e6;
        let Some(entry_us) = self.tap.clock.micros(entry) else { return };
        let at_us = ctx.now().as_micros() as f64;
        self.tap.lock().callbacks.push(Callback {
            node: ctx.me().0 as u16,
            kind,
            key,
            at_us,
            wait_us: (entry_us - at_us).max(0.0),
            dur_us,
        });
    }
}

impl<A: Actor<M>, M: Kinds + Clone + Send + 'static> Actor<M> for Timed<A, M> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        self.timed(ctx, KIND_START, 0, |a, ctx| a.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M) {
        let (kind, key) = msg.kind();
        self.tap.lock().sample.offer(&msg);
        self.timed(ctx, kind, key, |a, ctx| a.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, M>, tag: u64) {
        self.timed(ctx, KIND_TIMER, tag, |a, ctx| a.on_timer(ctx, tag));
    }

    fn on_crash(&mut self, now: SimTime) {
        self.inner.on_crash(now);
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        self.inner.on_restart(ctx);
    }
}

/// Add `actor` to the cluster, wrapped in [`Timed`] when tracing.
pub fn add_node<M, A>(b: &mut RuntimeBuilder<M>, actor: A, tap: Option<&Arc<Tap<M>>>) -> NodeId
where
    M: Kinds + Clone + Send + 'static,
    A: Actor<M> + Send,
{
    match tap {
        Some(tap) => b.add_node(Timed::new(actor, tap.clone())),
        None => b.add_node(actor),
    }
}

/// [`Runtime::inspect`] on a node that may be wrapped in [`Timed`].
pub fn inspect<M, A, R>(
    rt: &Runtime<M>,
    traced: bool,
    node: NodeId,
    f: impl FnOnce(&A) -> R + Send + 'static,
) -> R
where
    M: Kinds + Clone + Send + 'static,
    A: Actor<M> + Send,
    R: Send + 'static,
{
    if traced {
        rt.inspect::<Timed<A, M>, R, _>(node, move |t| f(&t.inner))
    } else {
        rt.inspect::<A, R, _>(node, f)
    }
}

/// [`RuntimeReport::actor`] on a node that may be wrapped in [`Timed`].
pub fn actor<M, A>(report: &RuntimeReport<M>, traced: bool, node: NodeId) -> &A
where
    M: Kinds + Clone + Send + 'static,
    A: Actor<M> + Send,
{
    if traced {
        &report.actor::<Timed<A, M>>(node).inner
    } else {
        report.actor::<A>(node)
    }
}
