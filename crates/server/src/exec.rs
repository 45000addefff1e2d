//! The job server's execution core: admission control, per-client fair
//! scheduling, the preempting worker pool, and the TCP front-end.
//!
//! This module (together with `bin/loadgen.rs`) is one of the few files
//! sanctioned by `sbm-lint` to own raw concurrency primitives (rules
//! C001/C002): the rest of the workspace stays free of threads and
//! locks, and everything here funnels through one `Mutex<State>` plus
//! two condvars — no per-job locks, no lock ordering to get wrong.
//!
//! # Scheduling model
//!
//! Jobs are queued per client and dispatched round-robin across
//! clients, so one tenant submitting hundreds of jobs cannot starve
//! another submitting one. Admission is bounded: past
//! [`ServerConfig::queue_capacity`] queued jobs, SUBMIT gets a typed
//! `BUSY` reply (backpressure), never an unbounded queue.
//!
//! # Preemption & durability
//!
//! A worker runs a job for one *slice* under a child [`Budget`]
//! ([`Budget::child`]) of the job's own deadline budget. A job whose
//! slice expires is *parked*: the script's own step checkpoint (written
//! under the job's `ckpt/` directory, every step, in canonical mode)
//! is its durable state, the slice's partial report is absorbed into a
//! durable running total, and the job re-enters the queue to resume —
//! never to restart. Slices escalate geometrically with each park so a
//! job always outgrows its slice eventually. Because every job runs the
//! serial, canonical-steps pipeline, a park/resume chain reproduces the
//! uninterrupted run bit for bit.
//!
//! On startup the server rescans the store root and re-admits every
//! durably admitted job that has neither a result nor a cancel marker —
//! a SIGKILL mid-run loses nothing and duplicates nothing (SUBMIT is
//! durable *before* it is acknowledged, and idempotent by job key).

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use sbm_budget::Budget;
use sbm_core::script::{sbm_script_budgeted_observed, sbm_script_resumable, ReportSink};
use sbm_metrics::{RunReport, ServerCounters, Timer};
use sbm_vfs::{ChaosVfs, IoFaultPlan};

use crate::job::{job_deadline, job_sbm_options};
use crate::protocol::{read_frame, write_frame, JobState, ProtocolError, Reply, Request};
use crate::scrub::scrub_store;
use crate::store::{JobMeta, JobResult, PersistedCounters, ScanState, Store, StoreError};

/// How many times a transiently broken slice (unreadable input/meta —
/// under chaos, a persistent run of injected read faults) is requeued
/// before the job is declared failed.
const BROKEN_REQUEUES: u32 = 3;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (use port 0 for an ephemeral port).
    pub addr: String,
    /// Durable store root.
    pub root: PathBuf,
    /// Worker threads executing job slices.
    pub workers: usize,
    /// Maximum queued (admitted, not yet finished) jobs before SUBMIT
    /// answers BUSY.
    pub queue_capacity: usize,
    /// Base execution slice; doubles with each park of a job (capped
    /// at 2^6 × base) so long jobs still finish.
    pub slice: Duration,
    /// Per-connection socket read/write deadline: a half-sent frame
    /// (slow loris) trips this instead of pinning a thread forever.
    pub conn_timeout: Duration,
    /// Seed for disk fault injection (meaningful with a nonzero rate).
    pub io_fault_seed: u64,
    /// Disk fault-injection rate; `> 0` routes every store I/O through
    /// a [`ChaosVfs`] with [`IoFaultPlan::uniform`] of this rate.
    pub io_fault_rate: f64,
    /// Run the store scrubber before the recovery scan at startup.
    pub scrub: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            root: PathBuf::from("sbm-server-store"),
            workers: 2,
            queue_capacity: 256,
            slice: Duration::from_millis(200),
            conn_timeout: Duration::from_secs(10),
            io_fault_seed: 0,
            io_fault_rate: 0.0,
            scrub: false,
        }
    }
}

/// Why the server could not start or run.
#[derive(Debug)]
pub enum ServerError {
    /// Store open / recovery-scan failure.
    Store(StoreError),
    /// Socket failure (bind/accept).
    Io(std::io::Error),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Store(e) => write!(f, "store error: {e}"),
            ServerError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// How the server is (not) stopping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StopMode {
    Run,
    /// Finish every queued job, then exit.
    Drain,
    /// Park running slices and exit now.
    Halt,
}

/// One job's in-memory record (the durable twin lives in the store).
struct JobEntry {
    meta: JobMeta,
    state: JobState,
    detail: String,
    /// Whole-job deadline budget; CANCEL cancels it and every running
    /// slice budget observes the cancellation through the parent chain.
    job_budget: Budget,
    /// Times a queue-wait span since the job last entered the queue.
    queued: Option<Timer>,
    cancel_requested: bool,
    /// Broken slices so far; bounded by [`BROKEN_REQUEUES`].
    broken_retries: u32,
}

/// The lock-guarded scheduler state.
struct State {
    jobs: BTreeMap<String, JobEntry>,
    /// Per-client FIFO queues of job keys.
    queues: BTreeMap<String, VecDeque<String>>,
    /// Round-robin order over clients (insertion order, stable).
    rr_clients: Vec<String>,
    rr_cursor: usize,
    queued: usize,
    running: usize,
    stop: StopMode,
}

impl State {
    /// Enqueues `key` on `client`'s queue, registering the client in
    /// the round-robin ring on first sight.
    fn enqueue(&mut self, client: &str, key: String) {
        if !self.queues.contains_key(client) {
            self.rr_clients.push(client.to_string());
        }
        self.queues
            .entry(client.to_string())
            .or_default()
            .push_back(key);
        self.queued += 1;
    }

    /// Pops the next job key, fair round-robin across clients.
    fn pick(&mut self) -> Option<String> {
        let n = self.rr_clients.len();
        for i in 0..n {
            let idx = (self.rr_cursor + i) % n;
            let client = &self.rr_clients[idx];
            if let Some(queue) = self.queues.get_mut(client) {
                if let Some(key) = queue.pop_front() {
                    self.rr_cursor = (idx + 1) % n;
                    self.queued -= 1;
                    return Some(key);
                }
            }
        }
        None
    }

    /// Removes `key` from its client's queue (cancellation of a queued
    /// job). Returns whether it was queued.
    fn unqueue(&mut self, client: &str, key: &str) -> bool {
        if let Some(queue) = self.queues.get_mut(client) {
            if let Some(pos) = queue.iter().position(|k| k == key) {
                queue.remove(pos);
                self.queued -= 1;
                return true;
            }
        }
        false
    }
}

struct Shared {
    cfg: ServerConfig,
    store: Store,
    state: Mutex<State>,
    /// Signalled when work is enqueued or the stop mode changes.
    work_ready: Condvar,
    /// The fault-injecting VFS when `io_fault_rate > 0` (its ledger
    /// feeds the report's `io_faults` counter).
    chaos: Option<Arc<ChaosVfs>>,
    /// Startup scrub results (zero when scrubbing is off).
    scrub_scanned: u64,
    scrub_quarantined: u64,
}

/// A running job server: bound listener plus worker pool.
pub struct Server {
    shared: Arc<Shared>,
    listener: TcpListener,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Opens the store, recovers every in-flight job from disk, binds
    /// the listener and starts the worker pool. The accept loop itself
    /// runs in [`Server::run`].
    ///
    /// # Errors
    ///
    /// [`ServerError`] when the store or the listener cannot be set up.
    pub fn start(cfg: ServerConfig) -> Result<Server, ServerError> {
        let chaos = if cfg.io_fault_rate > 0.0 {
            Some(Arc::new(ChaosVfs::new(IoFaultPlan::uniform(
                cfg.io_fault_seed,
                cfg.io_fault_rate,
            ))))
        } else {
            None
        };
        let store = match &chaos {
            Some(vfs) => Store::open_with(&cfg.root, Arc::clone(vfs) as _),
            None => Store::open(&cfg.root),
        }
        .map_err(ServerError::Store)?;
        // Scrub before the recovery scan, so the scan never trusts a
        // corrupt record: damaged files are already in quarantine.
        let (scrub_scanned, scrub_quarantined) = if cfg.scrub {
            let report = scrub_store(&store).map_err(ServerError::Store)?;
            (report.scanned, report.quarantined_count())
        } else {
            (0, 0)
        };
        let mut state = State {
            jobs: BTreeMap::new(),
            queues: BTreeMap::new(),
            rr_clients: Vec::new(),
            rr_cursor: 0,
            queued: 0,
            running: 0,
            stop: StopMode::Run,
        };
        // Crash recovery: every durably admitted job is either already
        // finished (serve its result from disk), cancelled, or in
        // flight — re-admit the latter exactly once.
        for scanned in store.scan().map_err(ServerError::Store)? {
            let mut meta = scanned.meta;
            let key = meta.key.clone();
            let (job_state, queued) = match scanned.state {
                ScanState::Done => (JobState::Done, None),
                ScanState::Cancelled => (JobState::Cancelled, None),
                ScanState::InFlight => {
                    meta.counters.recoveries += 1;
                    // Best-effort persist; a failed write only loses the
                    // recovery count, not the job.
                    let _ = store.write_meta(&meta);
                    (JobState::Queued, Some(Timer::start()))
                }
            };
            let entry = JobEntry {
                job_budget: Budget::from_deadline(job_deadline(&meta.options)),
                meta,
                state: job_state,
                detail: String::new(),
                queued,
                cancel_requested: false,
                broken_retries: 0,
            };
            if entry.state == JobState::Queued {
                let client = entry.meta.client.clone();
                state.enqueue(&client, key.clone());
            }
            state.jobs.insert(key, entry);
        }

        let listener = TcpListener::bind(&cfg.addr).map_err(ServerError::Io)?;
        let shared = Arc::new(Shared {
            cfg,
            store,
            state: Mutex::new(state),
            work_ready: Condvar::new(),
            chaos,
            scrub_scanned,
            scrub_quarantined,
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Server {
            shared,
            listener,
            workers,
        })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] when the socket has no local address.
    pub fn addr(&self) -> Result<SocketAddr, ServerError> {
        self.listener.local_addr().map_err(ServerError::Io)
    }

    /// Serves connections until a SHUTDOWN request arrives, then joins
    /// the worker pool (immediately for halt — running slices are
    /// cancelled and parked — or after the queue empties for drain).
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] when the listener fails.
    pub fn run(self) -> Result<(), ServerError> {
        self.listener
            .set_nonblocking(true)
            .map_err(ServerError::Io)?;
        loop {
            {
                let state = lock(&self.shared.state);
                if state.stop != StopMode::Run {
                    break;
                }
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    thread::spawn(move || handle_conn(&shared, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(ServerError::Io(e)),
            }
        }
        // Halt: cancel every running slice so workers return promptly.
        {
            let state = lock(&self.shared.state);
            if state.stop == StopMode::Halt {
                for entry in state.jobs.values() {
                    if entry.state == JobState::Running {
                        entry.job_budget.cancel();
                    }
                }
            }
        }
        self.shared.work_ready.notify_all();
        for handle in self.workers {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// Locks a mutex, shrugging off poison: state mutations are small and
/// panic-free, and a poisoned scheduler must keep serving (the durable
/// store, not the in-memory map, is the source of truth).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

// --- connection front-end ----------------------------------------------

fn handle_conn(shared: &Shared, mut stream: TcpStream) {
    // Per-connection deadlines: a peer that sends half a frame and
    // stalls (slow loris) trips the read timeout instead of pinning
    // this thread until the process dies.
    let deadline = shared.cfg.conn_timeout;
    if deadline > Duration::ZERO {
        let _ = stream.set_read_timeout(Some(deadline));
        let _ = stream.set_write_timeout(Some(deadline));
    }
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(payload) => payload,
            Err(ProtocolError::Timeout) => {
                // Tell the peer why before closing, best-effort: the
                // socket may already be beyond saving.
                let _ = write_frame(&mut stream, &Reply::Timeout.encode());
                return;
            }
            // BadCrc (corrupted in flight), Closed, or a socket error:
            // the stream cannot be trusted to stay framed — drop it and
            // let the client retry on a fresh connection.
            Err(_) => return,
        };
        let reply = match Request::decode(&payload) {
            Ok(request) => handle_request(shared, request),
            Err(e) => Reply::Err {
                message: format!("bad request: {e}"),
            },
        };
        if write_frame(&mut stream, &reply.encode()).is_err() {
            return;
        }
    }
}

fn handle_request(shared: &Shared, request: Request) -> Reply {
    match request {
        Request::Submit {
            client,
            key,
            options,
            aiger,
        } => handle_submit(shared, &client, &key, options, &aiger),
        Request::Status { key } => {
            let state = lock(&shared.state);
            match state.jobs.get(&key) {
                Some(entry) => Reply::Status {
                    state: entry.state,
                    detail: entry.detail.clone(),
                },
                None => Reply::Status {
                    state: JobState::Unknown,
                    detail: String::new(),
                },
            }
        }
        Request::Result { key } => handle_result(shared, &key),
        Request::Cancel { key } => handle_cancel(shared, &key),
        Request::Shutdown { drain } => {
            let mut state = lock(&shared.state);
            state.stop = if drain {
                StopMode::Drain
            } else {
                StopMode::Halt
            };
            drop(state);
            shared.work_ready.notify_all();
            Reply::Ok
        }
    }
}

fn handle_submit(
    shared: &Shared,
    client: &str,
    key: &str,
    options: crate::protocol::JobOptions,
    aiger: &str,
) -> Reply {
    // Validate before admission so a bad submit never occupies a slot.
    if key.is_empty() {
        return Reply::Err {
            message: "empty job key".to_string(),
        };
    }
    if let Err(e) = job_sbm_options(&options) {
        return Reply::Err {
            message: format!("invalid options: {e}"),
        };
    }
    let input = match sbm_aig::aiger::parse(aiger) {
        Ok(aig) => aig,
        Err(e) => {
            return Reply::Err {
                message: format!("unparsable AIGER: {e:?}"),
            }
        }
    };

    let mut state = lock(&shared.state);
    if state.jobs.contains_key(key) {
        // Idempotent resubmit: the key is already admitted (possibly
        // finished); never a second run.
        return Reply::Accepted { known: true };
    }
    if shared.store.exists(key) {
        // The durable job.meta ledger knows this key even though the
        // in-memory map does not (admitted by a prior incarnation and
        // missed by the recovery scan). Re-admit from disk rather than
        // running the job a second time — exactly-once is anchored to
        // the ledger, not to this process's memory.
        if let Ok(meta) = shared.store.read_meta(key) {
            let job_state = if matches!(shared.store.read_result(key), Ok(Some(_))) {
                JobState::Done
            } else if shared.store.is_cancelled(key) {
                JobState::Cancelled
            } else {
                JobState::Queued
            };
            let entry = JobEntry {
                job_budget: Budget::from_deadline(job_deadline(&meta.options)),
                meta,
                state: job_state,
                detail: String::new(),
                queued: (job_state == JobState::Queued).then(Timer::start),
                cancel_requested: false,
                broken_retries: 0,
            };
            let owner = entry.meta.client.clone();
            if job_state == JobState::Queued {
                state.enqueue(&owner, key.to_string());
            }
            state.jobs.insert(key.to_string(), entry);
            drop(state);
            shared.work_ready.notify_one();
            return Reply::Accepted { known: true };
        }
        // Meta unreadable even with retries: fall through and replace
        // the wreck with a fresh admission.
    }
    if state.stop != StopMode::Run {
        return Reply::Err {
            message: "server is shutting down".to_string(),
        };
    }
    if state.queued >= shared.cfg.queue_capacity {
        return Reply::Busy {
            queue_len: u32::try_from(state.queued).unwrap_or(u32::MAX),
        };
    }

    let meta = JobMeta {
        client: client.to_string(),
        key: key.to_string(),
        options,
        counters: PersistedCounters::default(),
    };
    // Durability before acknowledgement: the job directory (committed
    // by its `job.meta`) must exist before ACCEPTED goes out, so an
    // acknowledged job survives any crash. Holding the lock across this
    // write serializes admissions; acceptable at this server's scale,
    // and it keeps the in-memory map and the disk in lockstep.
    if let Err(e) = shared.store.create_job(&meta, &input) {
        return Reply::Err {
            message: format!("store write failed: {e}"),
        };
    }
    let entry = JobEntry {
        job_budget: Budget::from_deadline(job_deadline(&meta.options)),
        meta,
        state: JobState::Queued,
        detail: String::new(),
        queued: Some(Timer::start()),
        cancel_requested: false,
        broken_retries: 0,
    };
    state.enqueue(client, key.to_string());
    state.jobs.insert(key.to_string(), entry);
    drop(state);
    shared.work_ready.notify_one();
    Reply::Accepted { known: false }
}

fn handle_result(shared: &Shared, key: &str) -> Reply {
    {
        let state = lock(&shared.state);
        match state.jobs.get(key) {
            None => {
                return Reply::NotReady {
                    state: JobState::Unknown,
                }
            }
            Some(entry) if entry.state != JobState::Done => {
                return Reply::NotReady { state: entry.state }
            }
            Some(_) => {}
        }
    }
    // Done: stream the durable result (read outside the lock).
    match shared.store.read_result(key) {
        Ok(Some(result)) => Reply::Result {
            report_json: result.report_json,
            aiger: result.aiger,
        },
        Ok(None) => Reply::Err {
            message: "result vanished from the store".to_string(),
        },
        Err(e) => Reply::Err {
            message: format!("result unreadable: {e}"),
        },
    }
}

fn handle_cancel(shared: &Shared, key: &str) -> Reply {
    let mut state = lock(&shared.state);
    let Some(entry) = state.jobs.get_mut(key) else {
        return Reply::Err {
            message: "unknown job".to_string(),
        };
    };
    match entry.state {
        JobState::Done | JobState::Failed | JobState::Cancelled => Reply::Ok,
        JobState::Running => {
            // Cooperative preemption: the running slice's budget is a
            // child of the job budget, so cancelling the parent stops
            // the slice at its next budget probe; the worker then
            // records the durable cancel marker.
            entry.cancel_requested = true;
            entry.job_budget.cancel();
            Reply::Ok
        }
        JobState::Queued | JobState::Parked => {
            entry.cancel_requested = true;
            entry.state = JobState::Cancelled;
            let client = entry.meta.client.clone();
            state.unqueue(&client, key);
            drop(state);
            let _ = shared.store.mark_cancelled(key);
            Reply::Ok
        }
        JobState::Unknown => Reply::Err {
            message: "unknown job".to_string(),
        },
    }
}

// --- worker pool --------------------------------------------------------

/// What one execution slice produced.
enum SliceOutcome {
    /// The script ran to completion within the slice.
    Finished {
        aiger: String,
        report: RunReport,
        resumed: bool,
    },
    /// The slice budget tripped; the checkpoint holds the progress.
    Preempted { report: RunReport, resumed: bool },
    /// The whole-job budget tripped (deadline or cancel).
    JobBudgetTripped,
    /// The script panicked through the pipeline's own isolation.
    Panicked(String),
    /// The store failed (unreadable input, invalid options).
    Broken(String),
}

fn worker_loop(shared: &Shared) {
    loop {
        // Claim the next job, or exit per the stop mode.
        let (key, job_budget, slice_budget) = {
            let mut state = lock(&shared.state);
            let key = loop {
                match state.stop {
                    StopMode::Halt => return,
                    StopMode::Drain if state.queued == 0 && state.running == 0 => return,
                    _ => {}
                }
                if let Some(key) = state.pick() {
                    break key;
                }
                state = match shared.work_ready.wait(state) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            };
            let (job_budget, slice) = {
                let Some(entry) = state.jobs.get_mut(&key) else {
                    continue;
                };
                if entry.cancel_requested || entry.state == JobState::Cancelled {
                    entry.state = JobState::Cancelled;
                    drop(state);
                    let _ = shared.store.mark_cancelled(&key);
                    continue;
                }
                if let Some(timer) = entry.queued.take() {
                    entry.meta.counters.queue_us += duration_us(timer.stop());
                }
                entry.meta.counters.slices += 1;
                entry.state = JobState::Running;
                // Escalate the slice with each park so a job that
                // outlives its slice still converges (2^6 cap keeps it
                // bounded).
                let doublings = u32::try_from(entry.meta.counters.parks.min(6)).unwrap_or(6);
                (
                    entry.job_budget.clone(),
                    shared.cfg.slice.saturating_mul(1 << doublings),
                )
            };
            state.running += 1;
            let slice_budget = job_budget.child(slice);
            (key, job_budget, slice_budget)
        };
        shared.work_ready.notify_one();

        let outcome = run_slice(shared, &key, &job_budget, &slice_budget);
        settle_slice(shared, &key, outcome);
    }
}

/// Executes one slice of `key` outside the lock.
fn run_slice(shared: &Shared, key: &str, job_budget: &Budget, slice: &Budget) -> SliceOutcome {
    let input = match shared.store.read_input(key) {
        Ok(aig) => aig,
        Err(e) => return SliceOutcome::Broken(format!("input unreadable: {e}")),
    };
    let meta = match shared.store.read_meta(key) {
        Ok(meta) => meta,
        Err(e) => return SliceOutcome::Broken(format!("meta unreadable: {e}")),
    };
    let mut options = match job_sbm_options(&meta.options) {
        Ok(o) => o,
        Err(e) => return SliceOutcome::Broken(format!("options invalid: {e}")),
    };
    options.checkpoint_dir = Some(shared.store.ckpt_dir(key));

    // Counter durability: the slice's in-memory tallies would die with a
    // hard kill, so the durable running total (the partial report) must
    // advance in lockstep with the script checkpoint. The prior slices'
    // total is folded in up front, and the checkpoint-save observer
    // rewrites the partial at every snapshot — after a SIGKILL the
    // stored counters cover exactly the steps the resumed run will skip.
    let base = shared
        .store
        .read_partial_report(key)
        .ok()
        .flatten()
        .and_then(|json| RunReport::from_json(&json).ok());
    let persist = |partial: &sbm_core::pipeline::PipelineReport| {
        let mut total = partial.run_report();
        if let Some(prior) = &base {
            total.absorb(prior);
        }
        let _ = shared.store.write_partial_report(key, &total.to_json());
    };

    // The PR 3 ladder, job-server edition: resume from the parked
    // checkpoint when one exists; fall back to a fresh (checkpointing)
    // run when it doesn't or is damaged; isolate panics that escape the
    // pipeline's own per-engine isolation.
    let run = catch_unwind(AssertUnwindSafe(|| {
        match sbm_script_resumable(&input, &options, Some(slice), Some(ReportSink(&persist))) {
            Ok(out) => (out, true),
            Err(_) => (
                sbm_script_budgeted_observed(&input, &options, slice, ReportSink(&persist)),
                false,
            ),
        }
    }));
    let (out, resumed) = match run {
        Ok(pair) => pair,
        Err(panic) => return SliceOutcome::Panicked(panic_message(&panic)),
    };
    // Reports leave run_slice pre-composed with the prior slices' total,
    // so settle/compose never re-read the partial (the observer above
    // may have overwritten it mid-slice — re-absorbing would double
    // count).
    let mut report = out.stats.run_report();
    if let Some(prior) = &base {
        report.absorb(prior);
    }
    if job_budget.check().is_err() {
        // Deadline or CANCEL — either way the whole job is over.
        return SliceOutcome::JobBudgetTripped;
    }
    if slice.check().is_err() {
        return SliceOutcome::Preempted { report, resumed };
    }
    SliceOutcome::Finished {
        aiger: sbm_aig::aiger::write(&out.aig),
        report,
        resumed,
    }
}

/// Applies a slice's outcome: durable writes first, then the in-memory
/// transition under the lock.
fn settle_slice(shared: &Shared, key: &str, outcome: SliceOutcome) {
    // Read whatever context the transition needs under the lock once.
    let (counters, cancel_requested, broken_retries) = {
        let mut state = lock(&shared.state);
        state.running -= 1;
        match state.jobs.get_mut(key) {
            Some(entry) => {
                if let SliceOutcome::Finished { resumed, .. }
                | SliceOutcome::Preempted { resumed, .. } = &outcome
                {
                    if *resumed {
                        entry.meta.counters.resumes += 1;
                    }
                }
                if matches!(outcome, SliceOutcome::Preempted { .. }) {
                    entry.meta.counters.parks += 1;
                }
                if matches!(outcome, SliceOutcome::Broken(_)) {
                    entry.broken_retries += 1;
                }
                (
                    entry.meta.counters,
                    entry.cancel_requested,
                    entry.broken_retries,
                )
            }
            None => (PersistedCounters::default(), false, 0),
        }
    };

    let transition = match outcome {
        SliceOutcome::Finished {
            aiger,
            report,
            resumed: _,
        } => {
            let report_json = compose_final_report(shared, key, report, counters);
            match shared
                .store
                .write_result(key, &JobResult { report_json, aiger })
            {
                Ok(()) => (JobState::Done, String::new(), false),
                Err(e) => (JobState::Failed, format!("result write failed: {e}"), false),
            }
        }
        SliceOutcome::Preempted { report, resumed: _ } => {
            // Replace the durable running total: `report` is already
            // composed with the prior slices' counters (run_slice folds
            // them in before the slice starts), so it supersedes both
            // the old total and any mid-slice observer write.
            let _ = shared.store.write_partial_report(key, &report.to_json());
            (JobState::Parked, String::new(), true)
        }
        SliceOutcome::JobBudgetTripped => {
            if cancel_requested {
                let _ = shared.store.mark_cancelled(key);
                (JobState::Cancelled, String::new(), false)
            } else {
                (JobState::Failed, "job deadline exceeded".to_string(), false)
            }
        }
        SliceOutcome::Panicked(msg) => (JobState::Failed, format!("panic: {msg}"), false),
        SliceOutcome::Broken(msg) => {
            // A broken slice touched no checkpoint: requeueing it is
            // free and rides out a persistent run of injected read
            // faults. Bounded, so a genuinely wrecked job still fails.
            if broken_retries <= BROKEN_REQUEUES {
                (JobState::Queued, msg, true)
            } else {
                (JobState::Failed, msg, false)
            }
        }
    };

    let (new_state, detail, requeue) = transition;
    let mut state = lock(&shared.state);
    // Persist the counter mutations (best-effort: a failed meta write
    // costs counters, never correctness).
    if let Some(entry) = state.jobs.get_mut(key) {
        entry.state = new_state;
        entry.detail = detail;
        let _ = shared.store.write_meta(&entry.meta);
        if requeue {
            entry.queued = Some(Timer::start());
            let client = entry.meta.client.clone();
            state.enqueue(&client, key.to_string());
        }
    }
    drop(state);
    shared.work_ready.notify_all();
}

/// Builds the final `RunReport` for a finished job: the last slice's
/// report (pre-composed by `run_slice` with every prior slice's
/// counters), identity fields set to the server's, and the `server`
/// block filled from the job's persisted lifecycle counters.
fn compose_final_report(
    shared: &Shared,
    key: &str,
    mut report: RunReport,
    counters: PersistedCounters,
) -> String {
    report.tool = "sbm-server".to_string();
    report.scale = "server".to_string();
    report.threads = 1;
    report.benchmarks = vec![key.to_string()];
    report.server = ServerCounters {
        slices: counters.slices,
        parks: counters.parks,
        resumes: counters.resumes,
        recoveries: counters.recoveries,
        queue_us: counters.queue_us,
        scrub_scanned: shared.scrub_scanned,
        scrub_quarantined: shared.scrub_quarantined,
        io_faults: shared.chaos.as_ref().map_or(0, |c| c.fault_count()),
        retries: shared.store.retries(),
    };
    report.to_json()
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used, clippy::unwrap_used)]

    use super::*;

    #[test]
    fn round_robin_pick_is_fair_across_clients() {
        let mut state = State {
            jobs: BTreeMap::new(),
            queues: BTreeMap::new(),
            rr_clients: Vec::new(),
            rr_cursor: 0,
            queued: 0,
            running: 0,
            stop: StopMode::Run,
        };
        // Client A floods; client B submits one job.
        for i in 0..5 {
            state.enqueue("a", format!("a{i}"));
        }
        state.enqueue("b", "b0".to_string());
        assert_eq!(state.queued, 6);

        let picks: Vec<String> = std::iter::from_fn(|| state.pick()).collect();
        assert_eq!(state.queued, 0);
        // B's single job is dispatched second, not sixth.
        assert_eq!(
            picks,
            ["a0", "b0", "a1", "a2", "a3", "a4"]
                .iter()
                .map(|s| (*s).to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn unqueue_removes_only_the_requested_job() {
        let mut state = State {
            jobs: BTreeMap::new(),
            queues: BTreeMap::new(),
            rr_clients: Vec::new(),
            rr_cursor: 0,
            queued: 0,
            running: 0,
            stop: StopMode::Run,
        };
        state.enqueue("a", "a0".to_string());
        state.enqueue("a", "a1".to_string());
        assert!(state.unqueue("a", "a0"));
        assert!(!state.unqueue("a", "a0"));
        assert_eq!(state.queued, 1);
        assert_eq!(state.pick(), Some("a1".to_string()));
    }
}
