//! A small blocking client for the framed job-server protocol, used by
//! `loadgen`, the soak test and any embedding tool.
//!
//! One [`Client`] wraps one TCP connection; requests are strictly
//! request→reply, so the type is deliberately not `Sync` — use one
//! client per thread (they are cheap).
//!
//! A client built with [`Client::connect_with`] and a
//! [`NetFaultPlan`] routes its frames through a [`ChaosTransport`],
//! injecting deterministic drop/truncate/corrupt/delay faults on the
//! wire. Every injected fault surfaces as a retryable [`ClientError`]
//! ([`ClientError::TimedOut`] or a protocol error), never as silent
//! data damage — the frame CRC guarantees that.

use std::net::TcpStream;
use std::time::Duration;

use sbm_vfs::splitmix64;

use crate::protocol::{
    read_frame, write_frame, ChaosTransport, JobOptions, JobState, NetFaultPlan, ProtocolError,
    Reply, Request,
};

/// The wire: either a plain TCP stream or one wrapped in a
/// fault-injecting [`ChaosTransport`].
enum Transport {
    Plain(TcpStream),
    Chaos(ChaosTransport<TcpStream>),
}

impl Transport {
    fn stream(&self) -> &TcpStream {
        match self {
            Transport::Plain(s) => s,
            Transport::Chaos(t) => t.get_ref(),
        }
    }

    fn write_frame(&mut self, payload: &[u8]) -> Result<(), ProtocolError> {
        match self {
            Transport::Plain(s) => write_frame(s, payload),
            Transport::Chaos(t) => t.write_frame(payload),
        }
    }

    fn read_frame(&mut self) -> Result<Vec<u8>, ProtocolError> {
        match self {
            Transport::Plain(s) => read_frame(s),
            Transport::Chaos(t) => t.read_frame(),
        }
    }
}

/// A connected protocol client.
pub struct Client {
    transport: Transport,
}

/// A client-side failure: transport/protocol trouble, or a typed
/// server-side refusal.
#[derive(Debug)]
pub enum ClientError {
    /// Socket or framing failure.
    Protocol(ProtocolError),
    /// The request idled out — a socket deadline expired, or the server
    /// replied with its typed TIMEOUT. Retryable on a fresh connection.
    TimedOut,
    /// The server replied with something the request cannot accept
    /// (e.g. an `ERR` for a SUBMIT).
    Unexpected(String),
    /// The server reported a request-level error.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "protocol failure: {e}"),
            ClientError::TimedOut => write!(f, "request timed out"),
            ClientError::Unexpected(what) => write!(f, "unexpected reply: {what}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        match e {
            ProtocolError::Timeout => ClientError::TimedOut,
            other => ClientError::Protocol(other),
        }
    }
}

/// Capped exponential backoff with deterministic jitter, shared by
/// every retry loop that talks to the server. The `attempt`-th delay is
/// drawn from `[cap/2, cap]` where `cap = base * 2^attempt`, clamped to
/// [`Backoff::max`]; the jitter is seed-keyed so two runs with the same
/// seed sleep identically.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    /// First-attempt delay ceiling.
    pub base: Duration,
    /// Hard ceiling on any single delay.
    pub max: Duration,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            base: Duration::from_millis(25),
            max: Duration::from_secs(2),
            seed: 0,
        }
    }
}

impl Backoff {
    /// The delay before retry number `attempt` (0-based).
    #[must_use]
    pub fn delay(&self, attempt: u32) -> Duration {
        let cap_us = u64::try_from(self.base.as_micros())
            .unwrap_or(u64::MAX)
            .saturating_mul(1u64 << attempt.min(20));
        let max_us = u64::try_from(self.max.as_micros()).unwrap_or(u64::MAX);
        let cap_us = cap_us.min(max_us).max(1);
        let jitter = splitmix64(self.seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let us = cap_us / 2 + jitter % (cap_us / 2 + 1);
        Duration::from_micros(us)
    }

    /// Sleeps for [`Backoff::delay`] of `attempt`.
    pub fn sleep(&self, attempt: u32) {
        std::thread::sleep(self.delay(attempt));
    }
}

/// What a SUBMIT produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted now.
    Accepted,
    /// Already admitted (idempotent resubmit).
    AlreadyKnown,
    /// Admission queue full; retry after backoff.
    Busy {
        /// Queue length at rejection.
        queue_len: u32,
    },
}

/// A finished job's payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPayload {
    /// Strict-decoding `RunReport` JSON.
    pub report_json: String,
    /// The optimized circuit, in ASCII AIGER.
    pub aiger: String,
}

impl Client {
    /// Connects to a server address (e.g. `"127.0.0.1:4000"`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] on connect failure.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        Client::connect_with(addr, None)
    }

    /// Connects with an optional network fault plan; `Some(plan)`
    /// routes frames through a [`ChaosTransport`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] on connect failure.
    pub fn connect_with(addr: &str, chaos: Option<NetFaultPlan>) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ProtocolError::Io)?;
        // Requests are small and strictly request→reply: never let
        // Nagle's algorithm hold one back for an ACK. Best-effort — a
        // socket that refuses still works, only slower.
        let _ = stream.set_nodelay(true);
        let transport = match chaos {
            None => Transport::Plain(stream),
            Some(plan) => Transport::Chaos(ChaosTransport::new(stream, plan)),
        };
        Ok(Client { transport })
    }

    /// Sets both socket timeouts, so a killed server or a dropped frame
    /// surfaces as [`ClientError::TimedOut`] instead of a hang.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] when the socket rejects the timeout.
    pub fn set_timeout(&mut self, timeout: Duration) -> Result<(), ClientError> {
        let stream = self.transport.stream();
        stream
            .set_read_timeout(Some(timeout))
            .map_err(ProtocolError::Io)?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(ProtocolError::Io)?;
        Ok(())
    }

    fn round_trip(&mut self, request: &Request) -> Result<Reply, ClientError> {
        self.transport.write_frame(&request.encode())?;
        let payload = self.transport.read_frame()?;
        match Reply::decode(&payload)? {
            Reply::Timeout => Err(ClientError::TimedOut),
            reply => Ok(reply),
        }
    }

    /// Submits a job.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for a typed refusal (bad AIGER, bad
    /// options, draining server), [`ClientError`] otherwise.
    pub fn submit(
        &mut self,
        client: &str,
        key: &str,
        options: JobOptions,
        aiger: &str,
    ) -> Result<SubmitOutcome, ClientError> {
        match self.round_trip(&Request::Submit {
            client: client.to_string(),
            key: key.to_string(),
            options,
            aiger: aiger.to_string(),
        })? {
            Reply::Accepted { known: false } => Ok(SubmitOutcome::Accepted),
            Reply::Accepted { known: true } => Ok(SubmitOutcome::AlreadyKnown),
            Reply::Busy { queue_len } => Ok(SubmitOutcome::Busy { queue_len }),
            Reply::Err { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Queries a job's lifecycle state.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport or protocol failure.
    pub fn status(&mut self, key: &str) -> Result<(JobState, String), ClientError> {
        match self.round_trip(&Request::Status {
            key: key.to_string(),
        })? {
            Reply::Status { state, detail } => Ok((state, detail)),
            Reply::Err { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches a finished job's result; `Ok(None)` (with the current
    /// state) while the job is still pending.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport or protocol failure.
    #[allow(clippy::type_complexity)]
    pub fn result(&mut self, key: &str) -> Result<Result<JobPayload, JobState>, ClientError> {
        match self.round_trip(&Request::Result {
            key: key.to_string(),
        })? {
            Reply::Result { report_json, aiger } => Ok(Ok(JobPayload { report_json, aiger })),
            Reply::NotReady { state } => Ok(Err(state)),
            Reply::Err { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Cancels a job.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the job is unknown.
    pub fn cancel(&mut self, key: &str) -> Result<(), ClientError> {
        match self.round_trip(&Request::Cancel {
            key: key.to_string(),
        })? {
            Reply::Ok => Ok(()),
            Reply::Err { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Asks the server to stop (`drain`: finish queued work first).
    ///
    /// # Errors
    ///
    /// [`ClientError`] on transport or protocol failure.
    pub fn shutdown(&mut self, drain: bool) -> Result<(), ClientError> {
        match self.round_trip(&Request::Shutdown { drain })? {
            Reply::Ok => Ok(()),
            Reply::Err { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::expect_used, clippy::unwrap_used)]

    use super::*;

    #[test]
    fn backoff_grows_caps_and_is_deterministic() {
        let b = Backoff {
            base: Duration::from_millis(10),
            max: Duration::from_millis(500),
            seed: 42,
        };
        for attempt in 0..16 {
            let d = b.delay(attempt);
            assert_eq!(d, b.delay(attempt), "same seed, same delay");
            assert!(d <= b.max, "attempt {attempt} exceeds cap: {d:?}");
            // Never below half the (capped) exponential envelope.
            let cap = (10_000u64 << attempt.min(20)).min(500_000);
            assert!(d.as_micros() as u64 >= cap / 2);
        }
        // Early attempts are short, late attempts saturate at the cap.
        assert!(b.delay(0) < Duration::from_millis(11));
        assert!(b.delay(15) >= Duration::from_millis(250));
    }
}
