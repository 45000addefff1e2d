//! The framed wire protocol of `sbm-server`.
//!
//! Every message travels as one *frame*: a 4-byte little-endian payload
//! length, a 4-byte little-endian CRC-32 of the payload, then the
//! payload, whose first byte is the message tag. Inside a payload,
//! integers are little-endian and strings are a `u32` byte length
//! followed by UTF-8 bytes. Frames are capped at [`MAX_FRAME`] so a
//! malformed or hostile length prefix can never force a giant
//! allocation, and the CRC turns a corrupted-in-flight frame into a
//! typed [`ProtocolError::BadCrc`] instead of a misparse.
//!
//! The protocol is deliberately version-stamped by its tags rather than
//! negotiable: a server and client from different builds fail loudly on
//! the first unknown tag, the same strictness stance as the
//! `RunReport` schema.

use std::fmt;
use std::io::{Read, Write};
use std::time::Duration;

use sbm_journal::crc32;
use sbm_vfs::splitmix64;

/// Upper bound on one frame's payload, in bytes. Large enough for any
/// realistic AIGER + report pair, small enough that a hostile length
/// prefix cannot exhaust memory.
pub const MAX_FRAME: u32 = 32 * 1024 * 1024;

/// Job execution options carried by a SUBMIT, the integer-only wire form
/// of the `SbmOptions` knobs a tenant may set. (Rates travel as parts
/// per million so the wire stays float-free.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobOptions {
    /// Script iterations (≥ 1).
    pub iterations: u32,
    /// Simulation-signature candidate filtering (the default: on).
    pub sim_filter: bool,
    /// Invariant-checking level: 0 off, 1 boundaries, 2 paranoid.
    pub check: u8,
    /// Whole-job wall-clock deadline in milliseconds (0 = unbounded).
    pub deadline_ms: u64,
    /// Fault-injection seed (meaningful only with a nonzero rate).
    pub fault_seed: u64,
    /// Fault-injection rate in parts per million (0 = no injection).
    pub fault_rate_ppm: u32,
    /// SAT conflict budget (0 = unbudgeted).
    pub sat_budget: u64,
}

impl Default for JobOptions {
    fn default() -> Self {
        JobOptions {
            iterations: 1,
            sim_filter: true,
            check: 1,
            deadline_ms: 0,
            fault_seed: 0,
            fault_rate_ppm: 0,
            sat_budget: 2_000,
        }
    }
}

/// Lifecycle state of a job as reported to clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// The server has never heard of this key (or forgot a failed job
    /// across a restart) — resubmit.
    Unknown,
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing a slice right now.
    Running,
    /// Preempted at the end of a slice; parked as a checkpoint, queued
    /// to resume.
    Parked,
    /// Finished; the result is ready to stream.
    Done,
    /// Execution failed (the message travels in STATUS/ERR replies).
    Failed,
    /// Cancelled by a CANCEL request.
    Cancelled,
}

impl JobState {
    fn to_byte(self) -> u8 {
        match self {
            JobState::Unknown => 0,
            JobState::Queued => 1,
            JobState::Running => 2,
            JobState::Parked => 3,
            JobState::Done => 4,
            JobState::Failed => 5,
            JobState::Cancelled => 6,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ProtocolError> {
        Ok(match b {
            0 => JobState::Unknown,
            1 => JobState::Queued,
            2 => JobState::Running,
            3 => JobState::Parked,
            4 => JobState::Done,
            5 => JobState::Failed,
            6 => JobState::Cancelled,
            other => return Err(ProtocolError::BadValue("job state", u32::from(other))),
        })
    }
}

/// Client → server requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a job: client id, idempotency key, options, AIGER text.
    Submit {
        /// Tenant identity used for fair scheduling.
        client: String,
        /// Idempotency key: resubmitting a known key never duplicates
        /// the job.
        key: String,
        /// Execution options.
        options: JobOptions,
        /// The circuit, in ASCII AIGER.
        aiger: String,
    },
    /// Query a job's lifecycle state.
    Status {
        /// The job key.
        key: String,
    },
    /// Fetch a finished job's report + optimized AIGER.
    Result {
        /// The job key.
        key: String,
    },
    /// Cancel a queued/running job.
    Cancel {
        /// The job key.
        key: String,
    },
    /// Stop the server: `drain = true` finishes queued work first,
    /// `false` parks in-flight jobs and exits immediately.
    Shutdown {
        /// Drain the queue before exiting.
        drain: bool,
    },
}

/// Server → client replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// SUBMIT accepted; `known` is true when the key already existed
    /// (idempotent resubmit — no second run happens).
    Accepted {
        /// The key was already admitted (or finished) before.
        known: bool,
    },
    /// SUBMIT rejected by admission control: the queue is full. Typed
    /// backpressure — the client backs off and retries.
    Busy {
        /// Queued jobs at rejection time.
        queue_len: u32,
    },
    /// STATUS reply.
    Status {
        /// Current lifecycle state.
        state: JobState,
        /// Failure detail for [`JobState::Failed`], empty otherwise.
        detail: String,
    },
    /// RESULT for a job that is not [`JobState::Done`] yet.
    NotReady {
        /// Current lifecycle state.
        state: JobState,
    },
    /// RESULT payload: the run report JSON and the optimized AIGER.
    Result {
        /// Strict-decoding `RunReport` JSON.
        report_json: String,
        /// The optimized circuit, in ASCII AIGER.
        aiger: String,
    },
    /// Request-level failure (unparsable AIGER, invalid options,
    /// draining server, …).
    Err {
        /// Human-readable reason.
        message: String,
    },
    /// CANCEL / SHUTDOWN acknowledged.
    Ok,
    /// The connection idled past the server's per-connection deadline
    /// (e.g. a half-sent frame). Sent best-effort before the server
    /// closes the socket; the client treats it as retryable.
    Timeout,
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// A frame length exceeded [`MAX_FRAME`].
    Oversized(u32),
    /// The payload ended before its declared contents.
    Truncated,
    /// An unknown message tag.
    BadTag(u8),
    /// A field held an out-of-range value.
    BadValue(&'static str, u32),
    /// A string field was not UTF-8.
    BadUtf8(&'static str),
    /// The socket's read/write deadline expired mid-frame.
    Timeout,
    /// A frame's payload did not match its CRC — corrupted in flight.
    BadCrc,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "socket error: {e}"),
            ProtocolError::Closed => write!(f, "connection closed"),
            ProtocolError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            ProtocolError::Truncated => write!(f, "frame payload truncated"),
            ProtocolError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            ProtocolError::BadValue(what, v) => write!(f, "out-of-range {what}: {v}"),
            ProtocolError::BadUtf8(what) => write!(f, "non-UTF-8 {what}"),
            ProtocolError::Timeout => write!(f, "socket deadline expired mid-frame"),
            ProtocolError::BadCrc => write!(f, "frame CRC mismatch"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => ProtocolError::Closed,
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ProtocolError::Timeout,
            _ => ProtocolError::Io(e),
        }
    }
}

// --- payload primitives -------------------------------------------------

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, u32::try_from(s.len()).unwrap_or(u32::MAX));
    buf.extend_from_slice(s.as_bytes());
}

/// Cursor over one received payload.
pub(crate) struct Cur<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Cur { data, pos: 0 }
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ProtocolError> {
        let b = *self.data.get(self.pos).ok_or(ProtocolError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ProtocolError> {
        let end = self.pos.checked_add(4).ok_or(ProtocolError::Truncated)?;
        let bytes = self
            .data
            .get(self.pos..end)
            .ok_or(ProtocolError::Truncated)?;
        self.pos = end;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(bytes);
        Ok(u32::from_le_bytes(arr))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ProtocolError> {
        let end = self.pos.checked_add(8).ok_or(ProtocolError::Truncated)?;
        let bytes = self
            .data
            .get(self.pos..end)
            .ok_or(ProtocolError::Truncated)?;
        self.pos = end;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(arr))
    }

    pub(crate) fn str(&mut self, what: &'static str) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        let end = self.pos.checked_add(len).ok_or(ProtocolError::Truncated)?;
        let bytes = self
            .data
            .get(self.pos..end)
            .ok_or(ProtocolError::Truncated)?;
        self.pos = end;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8(what))
    }

    pub(crate) fn finish(self) -> Result<(), ProtocolError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(ProtocolError::Truncated)
        }
    }
}

pub(crate) fn put_options(buf: &mut Vec<u8>, o: &JobOptions) {
    put_u32(buf, o.iterations);
    buf.push(u8::from(o.sim_filter));
    buf.push(o.check);
    put_u64(buf, o.deadline_ms);
    put_u64(buf, o.fault_seed);
    put_u32(buf, o.fault_rate_ppm);
    put_u64(buf, o.sat_budget);
}

pub(crate) fn get_options(cur: &mut Cur<'_>) -> Result<JobOptions, ProtocolError> {
    Ok(JobOptions {
        iterations: cur.u32()?,
        sim_filter: cur.u8()? != 0,
        check: cur.u8()?,
        deadline_ms: cur.u64()?,
        fault_seed: cur.u64()?,
        fault_rate_ppm: cur.u32()?,
        sat_budget: cur.u64()?,
    })
}

// --- message codec ------------------------------------------------------

impl Request {
    /// Serializes the request into a frame payload (tag + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Submit {
                client,
                key,
                options,
                aiger,
            } => {
                buf.push(0x01);
                put_str(&mut buf, client);
                put_str(&mut buf, key);
                put_options(&mut buf, options);
                put_str(&mut buf, aiger);
            }
            Request::Status { key } => {
                buf.push(0x02);
                put_str(&mut buf, key);
            }
            Request::Result { key } => {
                buf.push(0x03);
                put_str(&mut buf, key);
            }
            Request::Cancel { key } => {
                buf.push(0x04);
                put_str(&mut buf, key);
            }
            Request::Shutdown { drain } => {
                buf.push(0x05);
                buf.push(u8::from(*drain));
            }
        }
        buf
    }

    /// Decodes a frame payload produced by [`Request::encode`].
    pub fn decode(payload: &[u8]) -> Result<Request, ProtocolError> {
        let mut cur = Cur::new(payload);
        let tag = cur.u8()?;
        let req = match tag {
            0x01 => Request::Submit {
                client: cur.str("client id")?,
                key: cur.str("job key")?,
                options: get_options(&mut cur)?,
                aiger: cur.str("aiger text")?,
            },
            0x02 => Request::Status {
                key: cur.str("job key")?,
            },
            0x03 => Request::Result {
                key: cur.str("job key")?,
            },
            0x04 => Request::Cancel {
                key: cur.str("job key")?,
            },
            0x05 => Request::Shutdown {
                drain: cur.u8()? != 0,
            },
            other => return Err(ProtocolError::BadTag(other)),
        };
        cur.finish()?;
        Ok(req)
    }
}

impl Reply {
    /// Serializes the reply into a frame payload (tag + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Reply::Accepted { known } => {
                buf.push(0x81);
                buf.push(u8::from(*known));
            }
            Reply::Busy { queue_len } => {
                buf.push(0x82);
                put_u32(&mut buf, *queue_len);
            }
            Reply::Status { state, detail } => {
                buf.push(0x83);
                buf.push(state.to_byte());
                put_str(&mut buf, detail);
            }
            Reply::NotReady { state } => {
                buf.push(0x84);
                buf.push(state.to_byte());
            }
            Reply::Result { report_json, aiger } => {
                buf.push(0x85);
                put_str(&mut buf, report_json);
                put_str(&mut buf, aiger);
            }
            Reply::Err { message } => {
                buf.push(0x86);
                put_str(&mut buf, message);
            }
            Reply::Ok => buf.push(0x87),
            Reply::Timeout => buf.push(0x88),
        }
        buf
    }

    /// Decodes a frame payload produced by [`Reply::encode`].
    pub fn decode(payload: &[u8]) -> Result<Reply, ProtocolError> {
        let mut cur = Cur::new(payload);
        let tag = cur.u8()?;
        let reply = match tag {
            0x81 => Reply::Accepted {
                known: cur.u8()? != 0,
            },
            0x82 => Reply::Busy {
                queue_len: cur.u32()?,
            },
            0x83 => Reply::Status {
                state: JobState::from_byte(cur.u8()?)?,
                detail: cur.str("status detail")?,
            },
            0x84 => Reply::NotReady {
                state: JobState::from_byte(cur.u8()?)?,
            },
            0x85 => Reply::Result {
                report_json: cur.str("report json")?,
                aiger: cur.str("aiger text")?,
            },
            0x86 => Reply::Err {
                message: cur.str("error message")?,
            },
            0x87 => Reply::Ok,
            0x88 => Reply::Timeout,
            other => return Err(ProtocolError::BadTag(other)),
        };
        cur.finish()?;
        Ok(reply)
    }
}

// --- frame I/O ----------------------------------------------------------

/// Encodes one frame — length prefix, payload CRC, payload — into a
/// single buffer, so it can leave in one write.
///
/// # Errors
///
/// [`ProtocolError::Oversized`] when the payload exceeds [`MAX_FRAME`].
pub(crate) fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, ProtocolError> {
    let len = u32::try_from(payload.len()).map_err(|_| ProtocolError::Oversized(u32::MAX))?;
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversized(len));
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Writes one frame (length prefix + payload CRC + payload) in a single
/// write and flushes.
///
/// One write per frame matters on a socket: a frame split over several
/// small writes lets Nagle's algorithm hold the later ones until the
/// peer's delayed ACK, a ~40 ms stall per frame. Both ends also set
/// `TCP_NODELAY`.
///
/// # Errors
///
/// [`ProtocolError::Oversized`] when the payload exceeds [`MAX_FRAME`],
/// [`ProtocolError::Io`] on socket failure, [`ProtocolError::Timeout`]
/// when a write deadline expires.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtocolError> {
    w.write_all(&encode_frame(payload)?)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame's payload and verifies its CRC.
///
/// # Errors
///
/// [`ProtocolError::Closed`] on clean EOF before the length prefix,
/// [`ProtocolError::Oversized`] when the prefix exceeds [`MAX_FRAME`],
/// [`ProtocolError::BadCrc`] when the payload was damaged in flight,
/// [`ProtocolError::Timeout`] when a read deadline expires mid-frame,
/// [`ProtocolError::Io`] on socket failure.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtocolError> {
    let mut len_bytes = [0u8; 4];
    if let Err(e) = r.read_exact(&mut len_bytes) {
        return Err(e.into());
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversized(len));
    }
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != u32::from_le_bytes(crc_bytes) {
        return Err(ProtocolError::BadCrc);
    }
    Ok(payload)
}

// --- deterministic network fault injection ------------------------------

/// Which network fault fired on a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// The frame silently vanishes — never written to the socket.
    Drop,
    /// A half-frame: the header and a payload prefix go out, then the
    /// sender stops. The peer's read deadline turns this into
    /// [`ProtocolError::Timeout`].
    Truncate,
    /// One payload byte flips in flight; the frame CRC catches it as
    /// [`ProtocolError::BadCrc`].
    Corrupt,
    /// The frame is delivered intact after an injected stall.
    Delay,
}

impl NetFaultKind {
    /// Stable kebab-case name for logs and ledgers.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            NetFaultKind::Drop => "drop",
            NetFaultKind::Truncate => "truncate",
            NetFaultKind::Corrupt => "corrupt",
            NetFaultKind::Delay => "delay",
        }
    }
}

/// Frame direction, a component of the fault hash.
const DIR_SEND: u8 = 0;
const DIR_RECV: u8 = 1;

/// A deterministic, replayable network fault plan: whether frame `seq`
/// in a given direction faults is a pure function of
/// `(seed, direction, seq)`, mixed with the same splitmix64 chain the
/// disk-side [`sbm_vfs::IoFaultPlan`] uses. Two transports with equal
/// plans inject byte-identical fault sequences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultPlan {
    /// Seed for the per-frame hash.
    pub seed: u64,
    /// Probability a sent frame is silently dropped.
    pub drop_rate: f64,
    /// Probability a sent frame is truncated mid-payload.
    pub truncate_rate: f64,
    /// Probability a frame has one byte flipped in flight.
    pub corrupt_rate: f64,
    /// Probability a frame is delayed by [`NetFaultPlan::delay`].
    pub delay_rate: f64,
    /// The injected stall for [`NetFaultKind::Delay`].
    pub delay: Duration,
}

impl NetFaultPlan {
    /// A plan whose total fault probability per frame is roughly
    /// `rate` (clamped to `[0, 0.5]`), split across the fault kinds.
    #[must_use]
    pub fn uniform(seed: u64, rate: f64) -> NetFaultPlan {
        let rate = rate.clamp(0.0, 0.5);
        NetFaultPlan {
            seed,
            drop_rate: rate / 4.0,
            truncate_rate: rate / 4.0,
            corrupt_rate: rate / 2.0,
            delay_rate: rate / 4.0,
            delay: Duration::from_micros(200),
        }
    }

    fn hash(&self, direction: u8, seq: u64) -> u64 {
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        h = splitmix64(h ^ u64::from(direction));
        h = splitmix64(h ^ seq);
        h
    }

    fn roll(&self, direction: u8, seq: u64) -> Option<NetFaultKind> {
        let h = self.hash(direction, seq);
        #[allow(clippy::cast_precision_loss)]
        let r = (h >> 11) as f64 / (1u64 << 53) as f64;
        let mut band = self.drop_rate;
        if r < band {
            return Some(NetFaultKind::Drop);
        }
        band += self.truncate_rate;
        if r < band {
            return Some(NetFaultKind::Truncate);
        }
        band += self.corrupt_rate;
        if r < band {
            return Some(NetFaultKind::Corrupt);
        }
        band += self.delay_rate;
        if r < band {
            return Some(NetFaultKind::Delay);
        }
        None
    }

    /// Secondary deterministic value (e.g. which byte to flip).
    fn derive(&self, direction: u8, seq: u64, modulus: u64) -> u64 {
        splitmix64(self.hash(direction, seq)) % modulus.max(1)
    }
}

/// A framed transport that injects [`NetFaultPlan`] faults on the
/// frames it sends and receives. Wraps any `Read + Write` stream; the
/// chaos client wraps its `TcpStream` here so every injected fault is
/// deterministic per `(seed, direction, frame index)` and the retry
/// machinery above it can be soak-tested without a flaky network.
#[derive(Debug)]
pub struct ChaosTransport<S> {
    inner: S,
    plan: NetFaultPlan,
    sent: u64,
    received: u64,
    faults: u64,
}

impl<S> ChaosTransport<S> {
    /// Wraps `inner` with fault plan `plan`.
    pub fn new(inner: S, plan: NetFaultPlan) -> ChaosTransport<S> {
        ChaosTransport {
            inner,
            plan,
            sent: 0,
            received: 0,
            faults: 0,
        }
    }

    /// The wrapped stream (for socket deadline configuration).
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped stream.
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Faults injected so far, both directions.
    #[must_use]
    pub fn faults(&self) -> u64 {
        self.faults
    }
}

impl<S: Write> ChaosTransport<S> {
    /// Writes one frame, possibly dropping, truncating, corrupting, or
    /// delaying it per the plan.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] from the underlying socket; injected faults
    /// themselves report success (the damage surfaces at the peer).
    pub fn write_frame(&mut self, payload: &[u8]) -> Result<(), ProtocolError> {
        let seq = self.sent;
        self.sent += 1;
        match self.plan.roll(DIR_SEND, seq) {
            None => write_frame(&mut self.inner, payload),
            Some(NetFaultKind::Drop) => {
                self.faults += 1;
                Ok(())
            }
            Some(NetFaultKind::Truncate) => {
                self.faults += 1;
                let frame = encode_frame(payload)?;
                // The header and half the payload; with nothing to
                // halve, stall after half the length prefix.
                let cut = if payload.is_empty() {
                    2
                } else {
                    8 + payload.len() / 2
                };
                self.inner.write_all(&frame[..cut])?;
                self.inner.flush()?;
                Ok(())
            }
            Some(NetFaultKind::Corrupt) => {
                self.faults += 1;
                // The CRC is of the *original* payload, so the peer's
                // frame validation catches the flip.
                let mut frame = encode_frame(payload)?;
                if !payload.is_empty() {
                    let idx = self.plan.derive(DIR_SEND, seq, payload.len() as u64) as usize;
                    frame[8 + idx] ^= 0x5A;
                }
                self.inner.write_all(&frame)?;
                self.inner.flush()?;
                Ok(())
            }
            Some(NetFaultKind::Delay) => {
                self.faults += 1;
                std::thread::sleep(self.plan.delay);
                write_frame(&mut self.inner, payload)
            }
        }
    }
}

impl<S: Read> ChaosTransport<S> {
    /// Reads one frame, possibly injecting receive-side damage: a
    /// corrupt roll reports [`ProtocolError::BadCrc`] as if the bytes
    /// arrived flipped; a drop/truncate roll reports
    /// [`ProtocolError::Timeout`] as if the frame never completed.
    ///
    /// # Errors
    ///
    /// [`ProtocolError`] from the underlying socket or injected.
    pub fn read_frame(&mut self) -> Result<Vec<u8>, ProtocolError> {
        let seq = self.received;
        self.received += 1;
        let payload = read_frame(&mut self.inner)?;
        match self.plan.roll(DIR_RECV, seq) {
            None => Ok(payload),
            Some(NetFaultKind::Delay) => {
                self.faults += 1;
                std::thread::sleep(self.plan.delay);
                Ok(payload)
            }
            Some(NetFaultKind::Corrupt) => {
                self.faults += 1;
                Err(ProtocolError::BadCrc)
            }
            Some(NetFaultKind::Drop | NetFaultKind::Truncate) => {
                self.faults += 1;
                Err(ProtocolError::Timeout)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used, clippy::unwrap_used)]

    use super::*;

    fn round_trip_request(req: Request) {
        let payload = req.encode();
        assert_eq!(Request::decode(&payload).expect("decode"), req);
        // Strictness: a trailing byte is rejected, not ignored.
        let mut longer = payload.clone();
        longer.push(0);
        assert!(Request::decode(&longer).is_err());
        // And any truncation fails rather than misparsing.
        for cut in 0..payload.len() {
            assert!(
                Request::decode(&payload[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Submit {
            client: "tenant-a".to_string(),
            key: "job-1".to_string(),
            options: JobOptions {
                iterations: 2,
                sim_filter: false,
                check: 2,
                deadline_ms: 30_000,
                fault_seed: 7,
                fault_rate_ppm: 1_000,
                sat_budget: 0,
            },
            aiger: "aag 0 0 0 0 0\n".to_string(),
        });
        round_trip_request(Request::Status {
            key: "job-1".to_string(),
        });
        round_trip_request(Request::Result { key: String::new() });
        round_trip_request(Request::Cancel {
            key: "job-\u{2603}".to_string(),
        });
        round_trip_request(Request::Shutdown { drain: true });
        round_trip_request(Request::Shutdown { drain: false });
    }

    #[test]
    fn replies_round_trip() {
        for reply in [
            Reply::Accepted { known: false },
            Reply::Accepted { known: true },
            Reply::Busy { queue_len: 64 },
            Reply::Status {
                state: JobState::Parked,
                detail: String::new(),
            },
            Reply::Status {
                state: JobState::Failed,
                detail: "panic: boom".to_string(),
            },
            Reply::NotReady {
                state: JobState::Running,
            },
            Reply::Result {
                report_json: "{}".to_string(),
                aiger: "aag 0 0 0 0 0\n".to_string(),
            },
            Reply::Err {
                message: "bad aiger".to_string(),
            },
            Reply::Ok,
            Reply::Timeout,
        ] {
            let payload = reply.encode();
            assert_eq!(Reply::decode(&payload).expect("decode"), reply);
        }
    }

    #[test]
    fn unknown_tags_and_states_are_rejected() {
        assert!(matches!(
            Request::decode(&[0x7f]),
            Err(ProtocolError::BadTag(0x7f))
        ));
        assert!(matches!(
            Reply::decode(&[0x01]),
            Err(ProtocolError::BadTag(0x01))
        ));
        // Status reply carrying an out-of-range state byte.
        assert!(matches!(
            Reply::decode(&[0x84, 99]),
            Err(ProtocolError::BadValue("job state", 99))
        ));
        assert!(matches!(
            Request::decode(&[]),
            Err(ProtocolError::Truncated)
        ));
    }

    #[test]
    fn frames_round_trip_and_cap_length() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").expect("write");
        let mut read = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut read).expect("read"), b"hello");
        // EOF between frames is a clean close.
        assert!(matches!(read_frame(&mut read), Err(ProtocolError::Closed)));

        // A hostile length prefix is rejected before any allocation.
        let hostile = (MAX_FRAME + 1).to_le_bytes();
        let mut read = std::io::Cursor::new(hostile.to_vec());
        assert!(matches!(
            read_frame(&mut read),
            Err(ProtocolError::Oversized(_))
        ));

        // A truncated payload is an error, not a short read.
        let mut torn = Vec::new();
        torn.extend_from_slice(&10u32.to_le_bytes());
        torn.extend_from_slice(&0u32.to_le_bytes());
        torn.extend_from_slice(b"only4");
        let mut read = std::io::Cursor::new(torn);
        assert!(read_frame(&mut read).is_err());
    }

    #[test]
    fn frame_crc_catches_in_flight_corruption() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").expect("write");
        // Flip one payload byte: the 8-byte header stays intact.
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        let mut read = std::io::Cursor::new(wire);
        assert!(matches!(read_frame(&mut read), Err(ProtocolError::BadCrc)));
    }

    /// A `Write` that accepts every write whole and counts the calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_goes_out_in_one_write() {
        for len in [0usize, 1024, 200 * 1024] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let mut w = CountingWriter::default();
            write_frame(&mut w, &payload).expect("write");
            assert_eq!(w.writes, 1, "{len}-byte payload took {} writes", w.writes);
            let mut read = std::io::Cursor::new(w.bytes);
            assert_eq!(read_frame(&mut read).expect("read"), payload);
        }
    }

    #[test]
    fn frame_layout_is_length_crc_payload() {
        // The wire format, byte for byte: u32 LE length, u32 LE CRC-32
        // of the payload, the payload.
        let payload = b"\x02\x05\x00\x00\x00job-1";
        let mut expected = Vec::new();
        expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        expected.extend_from_slice(&crc32(payload).to_le_bytes());
        expected.extend_from_slice(payload);
        assert_eq!(encode_frame(payload).expect("encode"), expected);
        let mut wire = Vec::new();
        write_frame(&mut wire, payload).expect("write");
        assert_eq!(wire, expected);
    }

    #[test]
    fn chaos_transport_zero_rate_is_a_passthrough() {
        let mut t = ChaosTransport::new(Vec::new(), NetFaultPlan::uniform(7, 0.0));
        for i in 0..20u8 {
            t.write_frame(&[i; 5]).expect("write");
        }
        assert_eq!(t.faults(), 0);
        let mut read = std::io::Cursor::new(t.get_ref().clone());
        for i in 0..20u8 {
            assert_eq!(read_frame(&mut read).expect("read"), [i; 5]);
        }
    }

    #[test]
    fn chaos_transport_is_deterministic_and_injects_typed_damage() {
        let plan = NetFaultPlan::uniform(0xC0FFEE, 0.5);
        let run = || {
            let mut t = ChaosTransport::new(Vec::new(), plan);
            for i in 0..64u8 {
                t.write_frame(&[i; 9]).expect("write");
            }
            (t.get_ref().clone(), t.faults())
        };
        let (wire_a, faults_a) = run();
        let (wire_b, faults_b) = run();
        assert_eq!(wire_a, wire_b, "same plan, same bytes");
        assert_eq!(faults_a, faults_b);
        assert!(faults_a > 0, "a 50% plan over 64 frames must fire");

        // Up to the first truncation (which desynchronizes the byte
        // stream, as it would a real socket), decoding yields exactly
        // the mix the plan dictates: dropped frames absent, corrupt
        // frames as BadCrc, the rest clean.
        let mut expect_clean = 0u32;
        let mut expect_bad = 0u32;
        for seq in 0..64 {
            match plan.roll(super::DIR_SEND, seq) {
                Some(NetFaultKind::Truncate) => break,
                Some(NetFaultKind::Corrupt) => expect_bad += 1,
                Some(NetFaultKind::Drop) => {}
                Some(NetFaultKind::Delay) | None => expect_clean += 1,
            }
        }
        assert!(expect_clean > 0 && expect_bad > 0, "seed exercises both");
        let mut read = std::io::Cursor::new(wire_a);
        let mut clean = 0u32;
        let mut damaged = 0u32;
        while clean + damaged < expect_clean + expect_bad {
            match read_frame(&mut read) {
                Ok(p) => {
                    assert_eq!(p.len(), 9, "intact frames keep their length");
                    clean += 1;
                }
                Err(ProtocolError::BadCrc) => damaged += 1,
                Err(e) => panic!("unexpected decode error: {e}"),
            }
        }
        assert_eq!((clean, damaged), (expect_clean, expect_bad));
    }

    #[test]
    fn chaos_transport_receive_side_injects_typed_errors() {
        let mut wire = Vec::new();
        for i in 0..64u8 {
            write_frame(&mut wire, &[i; 3]).expect("write");
        }
        let plan = NetFaultPlan::uniform(0xBEEF, 0.5);
        let mut t = ChaosTransport::new(std::io::Cursor::new(wire), plan);
        let mut clean = 0u32;
        let mut bad_crc = 0u32;
        let mut timeouts = 0u32;
        for _ in 0..64 {
            match t.read_frame() {
                Ok(p) => {
                    assert_eq!(p.len(), 3);
                    clean += 1;
                }
                Err(ProtocolError::BadCrc) => bad_crc += 1,
                Err(ProtocolError::Timeout) => timeouts += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(clean > 0 && bad_crc > 0 && timeouts > 0);
        assert_eq!(t.faults(), u64::from(bad_crc + timeouts) + delays(&plan));
    }

    /// Counts receive-side Delay rolls for the fault-ledger check.
    fn delays(plan: &NetFaultPlan) -> u64 {
        (0..64)
            .filter(|&seq| plan.roll(super::DIR_RECV, seq) == Some(NetFaultKind::Delay))
            .count() as u64
    }

    #[test]
    fn non_utf8_strings_are_rejected() {
        // A Status request whose key bytes are invalid UTF-8.
        let mut payload = vec![0x02];
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            Request::decode(&payload),
            Err(ProtocolError::BadUtf8("job key"))
        ));
    }
}
