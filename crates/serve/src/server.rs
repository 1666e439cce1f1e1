//! The sharded TCP scoring server.
//!
//! Thread layout:
//!
//! * **acceptor** — owns the `TcpListener` and pins each accepted
//!   connection to a shard by round-robin, handing the socket over a
//!   channel and poking that shard's [`crate::reactor::Waker`];
//! * **shard event loops** (`ServeConfig::shards` of them, see
//!   [`crate::shard`]) — each owns its connections, batch queue, LRU
//!   cache, sentinel window, and metrics outright, multiplexing
//!   non-blocking reads over a poll-based readiness layer
//!   ([`crate::reactor`]); the hot path never takes a lock another
//!   shard can touch;
//! * **scorers** (one per shard) — drain micro-batches from their
//!   shard's queue ([`crate::batch::collect_batch`]) and run one
//!   batched forward pass per batch against the current
//!   [`crate::reload::ModelSlot`] generation, then fan replies back
//!   out and wake the owning shard.
//!
//! Cross-shard views (`{"cmd": "stats"}`, the Prometheus exposition,
//! health, SLO evaluation) are merged on read: each read captures every
//! shard's registry once and merges the captures with the server's own
//! registry (SLO alarms, model generation) — so the merged counters
//! always equal the per-shard sums, even mid-drain.
//!
//! Shutdown (`{"cmd": "shutdown"}` or [`ServerHandle::shutdown`]) is a
//! drain, not an abort: the acceptor stops accepting, shards close idle
//! connections but keep serving in-flight requests, and each scorer
//! keeps scoring until its queue is empty and disconnected, so every
//! enqueued request still receives its response.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use maleva_core::DetectorPipeline;
use maleva_obs::metrics::{merge, Gauge, Registry, Snapshot};
use maleva_obs::slo::SloSpec;
use maleva_obs::trace;
use maleva_wire::{ReloadAck, Stats};

use crate::batch::ScoreJob;
use crate::cache::LruCache;
use crate::error::ServeError;
use crate::fault::{FaultInjector, FaultPlan, FaultSite};
use crate::metrics::{self, Metrics, MetricsSnapshot};
use crate::protocol::HealthReport;
use crate::reactor::Poller;
use crate::reload::{load_model, ModelSlot};
use crate::sentinel::{Sentinel, SentinelConfig, SentinelReport};
use crate::shard::{self, ShardState};
use crate::slo::{default_serve_slos, validate_slos, SloReport, SloRuntime};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Independent shard event loops; connections are pinned to a
    /// shard round-robin at accept. Each shard owns its own queue,
    /// cache, sentinel window, and metrics. 1 preserves the exact
    /// single-domain behavior of earlier versions.
    pub shards: usize,
    /// Maximum rows per batched forward pass (per shard).
    pub max_batch: usize,
    /// How long the scorer waits for a batch to fill after the first
    /// job arrives.
    pub batch_timeout: Duration,
    /// Per-shard LRU score-cache capacity in entries; 0 disables the
    /// cache.
    pub cache_capacity: usize,
    /// Maximum request-line length in bytes.
    pub max_line_bytes: usize,
    /// Per-request deadline: a score request not answered within this
    /// budget gets a typed `deadline_exceeded` error instead of a
    /// connection that hangs on a slow or wedged scorer.
    pub request_deadline: Duration,
    /// The per-shard scoring-queue bound: when a shard's queue already
    /// holds this many jobs, new misses are shed with
    /// [`ServeError::Overloaded`] (plus a `retry_after_ms` hint)
    /// instead of blocking the client. The queue is sized to match, so
    /// the shed check is the only admission bound.
    pub shed_queue_depth: usize,
    /// Deterministic fault-injection plan; disabled by default.
    pub faults: FaultPlan,
    /// Extraction-sentinel configuration; disabled by default.
    pub sentinel: SentinelConfig,
    /// SLO specs evaluated by `{"cmd": "slo"}`; defaults to
    /// [`default_serve_slos`]. Empty disables the alarm engine.
    pub slos: Vec<SloSpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 1,
            max_batch: 32,
            batch_timeout: Duration::from_millis(2),
            cache_capacity: 4096,
            max_line_bytes: 1 << 20,
            request_deadline: Duration::from_secs(30),
            shed_queue_depth: 1024,
            faults: FaultPlan::disabled(),
            sentinel: SentinelConfig::default(),
            slos: default_serve_slos(),
        }
    }
}

/// Suggested client wait before retrying after an overload rejection:
/// roughly how long the queued work ahead of the request will take to
/// drain (batches ahead x batch timeout), capped at one second so the
/// hint never parks clients for long.
pub(crate) fn suggested_retry_after_ms(
    queue_depth: u64,
    max_batch: usize,
    batch_timeout: Duration,
) -> u64 {
    let batches_ahead = queue_depth / max_batch.max(1) as u64 + 1;
    let per_batch_ms = (batch_timeout.as_millis() as u64).max(1);
    (batches_ahead * per_batch_ms).min(1_000)
}

/// The idle poll tick: how often a shard wakes with no readiness
/// events to observe the shutdown flag and pending deadlines.
pub(crate) const READ_TICK: Duration = Duration::from_millis(50);

pub(crate) struct Shared {
    pub(crate) pipeline: DetectorPipeline,
    pub(crate) config: ServeConfig,
    /// The swappable model all shards score against.
    pub(crate) model: ModelSlot,
    /// Server-wide series: the SLO alarms and the model generation.
    registry: Registry,
    model_generation: Arc<Gauge>,
    /// Serializes reloads so load+validate+install is atomic.
    reload_lock: Mutex<()>,
    pub(crate) shards: Vec<Arc<ShardState>>,
    pub(crate) shutting_down: AtomicBool,
    pub(crate) addr: SocketAddr,
    /// One injector shared by every thread so chaos plans see one
    /// global per-site schedule, exactly as in the unsharded server.
    pub(crate) injector: FaultInjector,
    pub(crate) slo: SloRuntime,
}

impl Shared {
    /// [`FaultInjector::should_fire`] plus the faults-injected metric,
    /// attributed to the shard whose hot path hit the site.
    pub(crate) fn fire(&self, metrics: &Metrics, site: FaultSite) -> bool {
        let fired = self.injector.should_fire(site);
        if fired {
            metrics.faults_injected.inc();
        }
        fired
    }

    pub(crate) fn trigger_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::SeqCst) {
            for shard in &self.shards {
                shard.waker.wake();
            }
            // Unblock the acceptor with a throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        }
    }
}

/// One read of the server's metrics: a capture of each shard's
/// registry, in shard order, and their merge with the server registry.
pub(crate) struct Reading {
    pub(crate) shards: Vec<Snapshot>,
    pub(crate) merged: Snapshot,
}

impl Reading {
    /// The `stats` body. The merged view and the per-shard ones derive
    /// from the same captures, so they can never disagree, even taken
    /// mid-drain.
    pub(crate) fn stats(&self) -> Stats {
        Stats {
            merged: metrics::summarize(&self.merged),
            shards: self.shards.iter().map(metrics::summarize).collect(),
        }
    }
}

/// Captures every shard once, then the server registry, and merges
/// them — the one read path behind `stats`, `metrics`, `health`, `slo`
/// and the handle's metrics.
pub(crate) fn read(shared: &Shared) -> Reading {
    let shards: Vec<Snapshot> = shared.shards.iter().map(|s| s.capture()).collect();
    shared
        .model_generation
        .set(shared.model.generation().min(i64::MAX as u64) as i64);
    let merged = merge(shards.iter().chain([&shared.registry.snapshot()]));
    Reading { shards, merged }
}

/// Evaluates the SLO alarms against a fresh read.
pub(crate) fn evaluate_slo(shared: &Shared) -> SloReport {
    shared.slo.observe_and_evaluate(&read(shared).merged)
}

/// Loads, validates, and atomically installs the model at `path`.
/// Serialized under the reload lock; on any error the current
/// generation keeps serving untouched (no torn swap).
pub(crate) fn do_reload(shared: &Shared, path: &str) -> Result<ReloadAck, ServeError> {
    let _guard = match shared.reload_lock.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    let network = load_model(path, &shared.pipeline)?;
    let params = network.param_count() as u64;
    let generation = shared.model.install(network);
    trace::event(
        "serve.reload",
        &[("generation", generation.into()), ("params", params.into())],
    );
    Ok(ReloadAck { generation, params })
}

pub(crate) fn health_report(shared: &Shared) -> HealthReport {
    let draining = shared.shutting_down.load(Ordering::SeqCst);
    let merged = metrics::summarize(&read(shared).merged);
    HealthReport {
        status: if draining { "draining" } else { "ok" }.to_string(),
        draining,
        queue_depth: merged.queue_depth,
        shed_depth: shared.config.shed_queue_depth as u64,
        deadline_ms: shared.config.request_deadline.as_millis() as u64,
        scorer_panics: merged.scorer_panics,
        row_failures: merged.row_failures,
        overloaded: merged.overloaded,
        deadline_exceeded: merged.deadline_exceeded,
        model_generation: shared.model.generation(),
        faults: shared
            .injector
            .fired_counts()
            .into_iter()
            .map(|(name, fired)| (name.to_string(), fired))
            .collect(),
    }
}

pub(crate) fn sentinel_report(shared: &Shared) -> SentinelReport {
    let mut reports: Vec<SentinelReport> = shared
        .shards
        .iter()
        .map(|s| match s.sentinel.lock() {
            Ok(sentinel) => sentinel.report(),
            Err(poisoned) => poisoned.into_inner().report(),
        })
        .collect();
    if reports.len() == 1 {
        return reports.pop().expect("one report");
    }
    // Clients are pinned to shards by connection, so per-client rows
    // never split across reports: concatenation plus a stable sort is
    // an exact merge.
    let mut merged = SentinelReport {
        enabled: shared.config.sentinel.enabled,
        action: reports
            .first()
            .map(|r| r.action.clone())
            .unwrap_or_default(),
        tracked_clients: 0,
        flagged_clients: 0,
        clients: Vec::new(),
    };
    for report in reports {
        merged.tracked_clients += report.tracked_clients;
        merged.flagged_clients += report.flagged_clients;
        merged.clients.extend(report.clients);
    }
    merged.clients.sort_by(|a, b| a.client_id.cmp(&b.client_id));
    merged
}

/// A running server: its address, metrics access, reload and shutdown
/// control.
///
/// Dropping the handle shuts the server down (best effort, joining all
/// threads); call [`ServerHandle::join`] to instead block until a
/// client sends `{"cmd": "shutdown"}`.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    shard_threads: Vec<std::thread::JoinHandle<()>>,
    scorer_threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A point-in-time metrics snapshot, merged across shards.
    pub fn metrics(&self) -> MetricsSnapshot {
        metrics::summarize(&read(&self.shared).merged)
    }

    /// Per-site injected-fault counters, `(site, fired)` in stable
    /// order (all zero when injection is disabled).
    pub fn fault_counts(&self) -> Vec<(&'static str, u64)> {
        self.shared.injector.fired_counts()
    }

    /// The same health report served to `{"cmd": "health"}` clients.
    pub fn health(&self) -> HealthReport {
        health_report(&self.shared)
    }

    /// The same sentinel report served to `{"cmd": "sentinel"}` clients.
    pub fn sentinel(&self) -> SentinelReport {
        sentinel_report(&self.shared)
    }

    /// Evaluates the SLO burn-rate alarms now — the same report served
    /// to `{"cmd": "slo"}` clients.
    pub fn slo(&self) -> SloReport {
        evaluate_slo(&self.shared)
    }

    /// Hot-swaps the model from the artifact at `path` — the same
    /// atomic swap `{"cmd": "reload"}` performs. Returns the new
    /// generation.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ReloadFailed`] when the artifact cannot be
    /// loaded or does not match the serving pipeline; the current
    /// generation keeps serving.
    pub fn reload(&self, path: &str) -> Result<u64, ServeError> {
        do_reload(&self.shared, path).map(|ack| ack.generation)
    }

    /// The generation of the model currently serving (0 = boot model).
    pub fn generation(&self) -> u64 {
        self.shared.model.generation()
    }

    /// Initiates a graceful drain and waits for all threads to finish.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shared.trigger_shutdown();
        self.join_threads();
        self.metrics()
    }

    /// Blocks until the server shuts down (e.g. a client sent
    /// `{"cmd": "shutdown"}`), then returns the final metrics.
    pub fn join(mut self) -> MetricsSnapshot {
        self.join_threads();
        self.metrics()
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.shard_threads.drain(..) {
            let _ = h.join();
        }
        for h in self.scorer_threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.shard_threads.is_empty() {
            self.shared.trigger_shutdown();
            self.join_threads();
        }
    }
}

/// Binds the listener and spawns the acceptor plus one event-loop and
/// one scorer thread per shard.
///
/// # Errors
///
/// Returns [`std::io::ErrorKind::InvalidInput`] if an SLO window's
/// `max_burn_rate` is NaN or infinite, the bind error if the address is
/// unavailable, or the error from creating a shard's poller or threads.
pub fn spawn(pipeline: DetectorPipeline, config: ServeConfig) -> std::io::Result<ServerHandle> {
    validate_slos(&config.slos)?;
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shard_count = config.shards.max(1);
    let max_batch = config.max_batch.max(1);
    let batch_timeout = config.batch_timeout;
    let queue_bound = config.shed_queue_depth.max(1);

    let injector = FaultInjector::new(config.faults.clone());
    let registry = Registry::new();
    let slo = SloRuntime::new(config.slos.clone(), &registry);
    let model_generation = registry.gauge(
        "serve_model_generation",
        "Generation of the model currently serving (0 = boot model).",
    );
    let model = ModelSlot::new(pipeline.network().clone());

    /// The per-shard channel ends handed to that shard's threads.
    type Plumbing = (
        Poller,
        mpsc::Receiver<TcpStream>,
        mpsc::Receiver<ScoreJob>,
        mpsc::SyncSender<ScoreJob>,
    );
    let mut shards: Vec<Arc<ShardState>> = Vec::with_capacity(shard_count);
    let mut plumbing: Vec<Plumbing> = Vec::with_capacity(shard_count);
    for index in 0..shard_count {
        let (poller, waker) = Poller::new()?;
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let (job_tx, job_rx) = mpsc::sync_channel::<ScoreJob>(queue_bound);
        shards.push(Arc::new(ShardState {
            index,
            metrics: Metrics::new(),
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            sentinel: Mutex::new(Sentinel::new(config.sentinel.clone())),
            waker,
            conn_tx,
        }));
        plumbing.push((poller, conn_rx, job_rx, job_tx));
    }

    let shared = Arc::new(Shared {
        pipeline,
        config,
        model,
        registry,
        model_generation,
        reload_lock: Mutex::new(()),
        shards,
        shutting_down: AtomicBool::new(false),
        addr,
        injector,
        slo,
    });

    let mut shard_threads = Vec::with_capacity(shard_count);
    let mut scorer_threads = Vec::with_capacity(shard_count);
    for (index, (poller, conn_rx, job_rx, job_tx)) in plumbing.into_iter().enumerate() {
        let scorer = {
            let shared = Arc::clone(&shared);
            let shard = Arc::clone(&shared.shards[index]);
            std::thread::Builder::new()
                .name(format!("maleva-serve-scorer-{index}"))
                .spawn(move || {
                    shard::scorer_loop(&shared, &shard, &job_rx, max_batch, batch_timeout)
                })?
        };
        scorer_threads.push(scorer);
        let looper = {
            let shared = Arc::clone(&shared);
            let shard = Arc::clone(&shared.shards[index]);
            std::thread::Builder::new()
                .name(format!("maleva-serve-shard-{index}"))
                .spawn(move || shard::shard_loop(&shared, &shard, poller, &conn_rx, job_tx))?
        };
        shard_threads.push(looper);
    }

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("maleva-serve-acceptor".to_string())
            .spawn(move || acceptor_loop(&shared, &listener))?
    };

    Ok(ServerHandle {
        shared,
        acceptor: Some(acceptor),
        shard_threads,
        scorer_threads,
    })
}

fn acceptor_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut next = 0usize;
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shard = &shared.shards[next];
        next = (next + 1) % shared.shards.len();
        if shared.fire(&shard.metrics, FaultSite::AcceptReset) {
            // Close the connection right after accepting it: the client
            // sees an immediate EOF and must reconnect.
            drop(stream);
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        stream.set_nodelay(true).ok();
        // A send error means the shard already drained for shutdown.
        if shard.conn_tx.send(stream).is_ok() {
            shard.waker.wake();
        }
    }
}
