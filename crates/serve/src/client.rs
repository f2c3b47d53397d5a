//! The retrying client: idempotent requests over disposable
//! connections.
//!
//! [`ServeClient`] never trusts a connection: every transport or frame
//! error drops the socket, waits out the driver's [`RetryPolicy`]
//! backoff (deterministic FNV jitter keyed by the request content — the
//! same scheme job attempts use), reconnects, and re-sends the *same*
//! bytes. Because a submit's request id is the content digest, the
//! server-side dedup collapses any number of retries into one enqueue:
//! the client can be killed and restarted at any byte offset of any
//! attempt and the queue still sees the submit exactly once.
//!
//! Typed backpressure ([`Response::Saturated`],
//! [`Response::Overloaded`]) is retried the same way — it means "later",
//! not "never" — while typed rejections (`QuotaExceeded`, `Draining`,
//! `Error`) surface to the caller immediately.

use crate::proto::{
    read_frame, write_frame, FrameError, JobSpec, PoisonEntry, Request, Response, StatusReply,
    SubmitOutcome,
};
use ffsim_driver::fnv::fnv1a;
use ffsim_driver::RetryPolicy;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Any byte stream usable as a client connection (blanket-implemented).
pub trait Conn: Read + Write + Send {}
impl<T: Read + Write + Send> Conn for T {}

/// Produces a fresh connection per attempt. Returning an error is a
/// retryable condition (the server may be mid-restart).
pub type Connector = Box<dyn FnMut() -> io::Result<Box<dyn Conn>> + Send>;

/// Why a client call gave up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// The retry budget ran out without a response; carries the last
    /// transport/frame/backpressure condition seen.
    Exhausted(String),
    /// The server answered with a typed rejection that retrying cannot
    /// fix (malformed request, unknown campaign, quota, draining).
    Rejected(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Exhausted(last) => write!(f, "retries exhausted: {last}"),
            ClientError::Rejected(why) => write!(f, "rejected: {why}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A campaign-service client with deterministic retry.
pub struct ServeClient {
    connector: Connector,
    retry: RetryPolicy,
    conn: Option<Box<dyn Conn>>,
}

impl fmt::Debug for ServeClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeClient")
            .field("retry", &self.retry)
            .field("connected", &self.conn.is_some())
            .finish_non_exhaustive()
    }
}

impl ServeClient {
    /// A client over an arbitrary connector (tests inject
    /// [`FaultyTransport`](crate::FaultyTransport) here).
    #[must_use]
    pub fn new(connector: Connector, retry: RetryPolicy) -> ServeClient {
        ServeClient {
            connector,
            retry,
            conn: None,
        }
    }

    /// A TCP client for `addr` (e.g. `127.0.0.1:47613`) with the given
    /// per-read deadline.
    #[must_use]
    pub fn tcp(addr: String, io_timeout: Duration, retry: RetryPolicy) -> ServeClient {
        ServeClient::new(
            Box::new(move || {
                let stream = TcpStream::connect(&addr)?;
                stream.set_read_timeout(Some(io_timeout))?;
                stream.set_write_timeout(Some(io_timeout))?;
                Ok(Box::new(stream) as Box<dyn Conn>)
            }),
            retry,
        )
    }

    fn conn(&mut self) -> io::Result<&mut Box<dyn Conn>> {
        if self.conn.is_none() {
            self.conn = Some((self.connector)()?);
        }
        Ok(self.conn.as_mut().expect("just installed"))
    }

    /// Sends `request` until a response arrives, retrying transport
    /// faults and typed backpressure with the policy's deterministic
    /// jittered backoff. Every attempt re-sends identical bytes, so
    /// retried submits are deduplicated server-side.
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] once the retry budget is spent.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let payload = request.encode();
        // The backoff jitter key is the content digest of the request,
        // so a fleet of clients retrying distinct submits de-syncs
        // deterministically instead of thundering in lockstep.
        let key = format!("{:016x}", fnv1a(&payload));
        let attempts = self.retry.max_attempts.max(1);
        let mut last = String::from("no attempt made");
        for attempt in 0..attempts {
            if attempt > 0 {
                let pause = self.retry.backoff(&key, attempt - 1);
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
            match self.attempt(&payload) {
                Ok(Response::Saturated { depth, capacity }) => {
                    self.conn = None;
                    last = format!("saturated ({depth}/{capacity})");
                }
                Ok(Response::Overloaded { active, max }) => {
                    self.conn = None;
                    last = format!("overloaded ({active}/{max} connections)");
                }
                Ok(response) => return Ok(response),
                Err(e) => {
                    // Any transport doubt poisons the connection; the
                    // next attempt starts from a fresh socket.
                    self.conn = None;
                    last = e;
                }
            }
        }
        Err(ClientError::Exhausted(last))
    }

    /// One wire round-trip; any error string is retryable.
    fn attempt(&mut self, payload: &[u8]) -> Result<Response, String> {
        let conn = self.conn().map_err(|e| format!("connect: {e}"))?;
        write_frame(conn.as_mut(), payload).map_err(|e| format!("send: {e}"))?;
        let reply = match read_frame(conn.as_mut()) {
            Ok(reply) => reply,
            // The read deadline mid-silence is retryable too: the reply
            // may be lost, and idempotency makes re-asking safe.
            Err(FrameError::TimedOut) => return Err("reply deadline expired".into()),
            Err(e) => return Err(format!("recv: {e}")),
        };
        Response::decode(&reply).map_err(|e| format!("decode: {e}"))
    }

    // ------------------------------------------------------------------
    // Typed helpers.
    // ------------------------------------------------------------------

    /// Registers (or re-registers) a campaign, optionally with an
    /// admission quota.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on exhaustion or a typed rejection.
    pub fn register(&mut self, campaign: &str, quota: Option<u64>) -> Result<(), ClientError> {
        let response = self.call(&Request::Register {
            campaign: campaign.to_string(),
            quota,
        })?;
        match response {
            Response::Ok => Ok(()),
            other => Err(rejected(&other)),
        }
    }

    /// Submits one job idempotently; returns what the queue did and
    /// whether the answer came from the server's dedup map.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on exhaustion or a typed rejection (quota,
    /// draining, malformed spec).
    pub fn submit(
        &mut self,
        campaign: &str,
        job: JobSpec,
    ) -> Result<(SubmitOutcome, bool), ClientError> {
        let request = Request::Submit {
            request_id: job.digest(campaign),
            campaign: campaign.to_string(),
            job,
        };
        match self.call(&request)? {
            Response::Submitted { outcome, deduped } => Ok((outcome, deduped)),
            other => Err(rejected(&other)),
        }
    }

    /// Fetches aggregate queue counters.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on exhaustion or a typed rejection.
    pub fn status(&mut self) -> Result<StatusReply, ClientError> {
        match self.call(&Request::Status)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(rejected(&other)),
        }
    }

    /// Fetches the poison-job list.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on exhaustion or a typed rejection.
    pub fn poison_list(&mut self) -> Result<Vec<PoisonEntry>, ClientError> {
        match self.call(&Request::PoisonList)? {
            Response::Poison(jobs) => Ok(jobs),
            other => Err(rejected(&other)),
        }
    }

    /// Fetches the deterministic merged campaign report.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on exhaustion or a typed rejection.
    pub fn report(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::DrainReport)? {
            Response::Report(text) => Ok(text),
            other => Err(rejected(&other)),
        }
    }

    /// Fires the service-wide stop token.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on exhaustion or a typed rejection.
    pub fn cancel(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Cancel)? {
            Response::Ok => Ok(()),
            other => Err(rejected(&other)),
        }
    }

    /// Requests a graceful drain-and-exit.
    ///
    /// # Errors
    ///
    /// [`ClientError`] on exhaustion or a typed rejection.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            other => Err(rejected(&other)),
        }
    }
}

fn rejected(response: &Response) -> ClientError {
    ClientError::Rejected(match response {
        Response::Error(e) => e.clone(),
        Response::Draining => "server is draining; submits are closed".to_string(),
        Response::QuotaExceeded {
            campaign,
            live,
            quota,
        } => format!("campaign `{campaign}` at admission quota ({live}/{quota})"),
        other => format!("unexpected response {other:?}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::FaultyTransport;
    use std::io::Cursor;
    use std::sync::{Arc, Mutex};

    /// A scripted connection: reads serve pre-encoded reply frames,
    /// writes accumulate into a shared transcript.
    struct ScriptConn {
        reads: Cursor<Vec<u8>>,
        writes: Arc<Mutex<Vec<u8>>>,
    }

    impl Read for ScriptConn {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads.read(buf)
        }
    }

    impl Write for ScriptConn {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.lock().expect("transcript").write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn reply_bytes(responses: &[Response]) -> Vec<u8> {
        let mut wire = Vec::new();
        for response in responses {
            write_frame(&mut wire, &response.encode()).expect("encode reply");
        }
        wire
    }

    fn zero_backoff(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: attempts,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    fn spec() -> JobSpec {
        JobSpec {
            id: "alpha/j0".into(),
            mode: "wpemul".into(),
            workload: "countdown".into(),
            arg: 30,
        }
    }

    #[test]
    fn retries_a_torn_write_with_identical_bytes() {
        let transcript = Arc::new(Mutex::new(Vec::new()));
        let accepted = Response::Submitted {
            outcome: SubmitOutcome::Accepted,
            deduped: true,
        };
        let reply = reply_bytes(&[accepted]);
        let script = transcript.clone();
        let mut calls = 0u32;
        let connector: Connector = Box::new(move || {
            calls += 1;
            let conn = ScriptConn {
                reads: Cursor::new(reply.clone()),
                writes: script.clone(),
            };
            Ok(if calls == 1 {
                // First attempt: the pipe breaks 9 bytes into the frame.
                Box::new(FaultyTransport::new(conn).cut_write_after(9)) as Box<dyn Conn>
            } else {
                Box::new(conn) as Box<dyn Conn>
            })
        });
        let mut client = ServeClient::new(connector, zero_backoff(3));
        let (outcome, deduped) = client
            .submit("alpha", spec())
            .expect("second attempt lands");
        assert_eq!(outcome, SubmitOutcome::Accepted);
        assert!(deduped, "server saw the retry as a duplicate");

        // The retry sent the exact same frame: the transcript is the
        // torn 9-byte prefix followed by one complete copy of it.
        let bytes = transcript.lock().expect("transcript").clone();
        assert_eq!(&bytes[..9], &bytes[9..18], "identical resend");
        let full = &bytes[9..];
        let request = Request::decode(&read_frame(&mut Cursor::new(full.to_vec())).expect("frame"))
            .expect("decode");
        match request {
            Request::Submit { request_id, .. } => {
                assert_eq!(request_id, spec().digest("alpha"));
            }
            other => panic!("unexpected request {other:?}"),
        }
    }

    #[test]
    fn backpressure_is_retried_not_surfaced() {
        let transcript = Arc::new(Mutex::new(Vec::new()));
        let mut scripts = vec![
            reply_bytes(&[Response::Submitted {
                outcome: SubmitOutcome::Accepted,
                deduped: false,
            }]),
            reply_bytes(&[Response::Saturated {
                depth: 4,
                capacity: 4,
            }]),
        ];
        let script = transcript.clone();
        let connector: Connector = Box::new(move || {
            Ok(Box::new(ScriptConn {
                reads: Cursor::new(scripts.pop().expect("scripted")),
                writes: script.clone(),
            }) as Box<dyn Conn>)
        });
        let mut client = ServeClient::new(connector, zero_backoff(3));
        let (outcome, deduped) = client.submit("alpha", spec()).expect("after backpressure");
        assert_eq!((outcome, deduped), (SubmitOutcome::Accepted, false));
    }

    #[test]
    fn exhaustion_reports_the_last_failure() {
        let connector: Connector = Box::new(|| {
            Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "server is restarting",
            ))
        });
        let mut client = ServeClient::new(connector, zero_backoff(2));
        let err = client.status().expect_err("never connects");
        match err {
            ClientError::Exhausted(last) => assert!(last.contains("connect"), "{last}"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn typed_rejections_are_not_retried() {
        let mut served = 0u32;
        let connector: Connector = Box::new(move || {
            served += 1;
            assert_eq!(served, 1, "a rejection must not trigger a retry");
            Ok(Box::new(ScriptConn {
                reads: Cursor::new(reply_bytes(&[Response::Draining])),
                writes: Arc::new(Mutex::new(Vec::new())),
            }) as Box<dyn Conn>)
        });
        let mut client = ServeClient::new(connector, zero_backoff(5));
        let err = client.submit("alpha", spec()).expect_err("draining");
        assert!(matches!(err, ClientError::Rejected(ref why) if why.contains("draining")));
    }
}
