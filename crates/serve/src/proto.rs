//! The wire protocol: length-prefixed, checksum-framed messages and the
//! typed request/response vocabulary.
//!
//! # Frame format
//!
//! ```text
//! +------+---------+----------+-------------+---------·········+
//! | FFSP | version | len (u32 | fnv1a (u64  | payload (len     |
//! | (4B) | (1B)    | LE, 4B)  | LE, 8B)     | bytes, JSON)     |
//! +------+---------+----------+-------------+---------·········+
//! ```
//!
//! The checksum covers the payload with the same FNV-1a hash the
//! manifest seals use, so a frame damaged anywhere surfaces as a typed
//! [`FrameError`] — and a connection that dies mid-frame surfaces as
//! [`FrameError::Torn`], the transport twin of the queue journal's torn
//! tail. Whole frames are written with a single `write_all`, so an
//! injected short write tears mid-frame exactly like a real disconnect.
//!
//! # Idempotency keys
//!
//! A submit's `request_id` is not a random nonce: it is the FNV-1a
//! digest of the request *content* ([`JobSpec::digest`]), mirroring the
//! result cache's content-addressing. A client retry after a torn frame
//! recomputes the same id, the server recomputes and verifies it, and
//! the dedup map turns the retry into a no-op instead of a double
//! enqueue.

use ffsim_driver::fnv::{fnv1a, Fnv1a};
use ffsim_driver::json::{parse, Value};
use ffsim_driver::PoisonJob;
use std::fmt;
use std::io::{ErrorKind, Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"FFSP";
/// Protocol version byte; bumped on incompatible changes.
pub const PROTO_VERSION: u8 = 2;
/// Frame header length: magic + version + payload length + checksum.
const HEADER_LEN: usize = 4 + 1 + 4 + 8;
/// Maximum payload length a peer will accept (16 MiB): a corrupted
/// length field must never drive an unbounded allocation.
pub const MAX_FRAME: usize = 16 << 20;

/// Why a frame could not be read or written. Every variant is a typed,
/// recoverable condition: the peer closes the connection and the client
/// retries with the same idempotent request id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ended cleanly between frames (peer hung up).
    Closed,
    /// The stream ended (or the read deadline fired) mid-frame: the
    /// transport twin of the journal's torn tail.
    Torn,
    /// No bytes arrived before the read deadline; for a server this is
    /// an idle poll, not damage.
    TimedOut,
    /// The frame did not start with the protocol magic.
    BadMagic,
    /// The peer speaks an incompatible protocol version.
    BadVersion(u8),
    /// The declared payload length exceeds [`MAX_FRAME`].
    TooLarge(usize),
    /// The payload checksum did not match: damage in flight.
    ChecksumMismatch,
    /// An underlying transport error (reset, refused, broken pipe, ...).
    Io(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Torn => write!(f, "torn frame (stream ended mid-frame)"),
            FrameError::TimedOut => write!(f, "read deadline expired"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            FrameError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            FrameError::Io(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame (header + payload) with a single `write_all`, then
/// flushes.
///
/// # Errors
///
/// [`FrameError::TooLarge`] for an oversized payload, [`FrameError::Io`]
/// for transport failures (a short write surfaces here and tears the
/// frame on the peer's side).
pub fn write_frame(w: &mut (impl Write + ?Sized), payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME {
        return Err(FrameError::TooLarge(payload.len()));
    }
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.push(PROTO_VERSION);
    buf.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("bounded above")
            .to_le_bytes(),
    );
    buf.extend_from_slice(&fnv1a(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)
        .map_err(|e| FrameError::Io(e.to_string()))?;
    w.flush().map_err(|e| FrameError::Io(e.to_string()))?;
    Ok(())
}

/// Reads exactly `buf.len()` bytes. EOF before the first byte is the
/// `clean_eof` error (frame boundary: the peer just hung up); EOF or a
/// read deadline after it is [`FrameError::Torn`] (mid-frame).
fn fill(
    r: &mut (impl Read + ?Sized),
    buf: &mut [u8],
    clean_eof: FrameError,
) -> Result<(), FrameError> {
    let mut off = 0usize;
    while off < buf.len() {
        match r.read(&mut buf[off..]) {
            Ok(0) => {
                return Err(if off == 0 {
                    clean_eof
                } else {
                    FrameError::Torn
                });
            }
            Ok(n) => off += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Err(if off == 0 {
                    FrameError::TimedOut
                } else {
                    FrameError::Torn
                });
            }
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(())
}

/// Reads one frame and returns its verified payload.
///
/// # Errors
///
/// [`FrameError::Closed`] on a clean hang-up between frames,
/// [`FrameError::TimedOut`] when the read deadline fires before the
/// first byte (an idle poll), and the corruption variants
/// ([`Torn`](FrameError::Torn), [`BadMagic`](FrameError::BadMagic),
/// [`ChecksumMismatch`](FrameError::ChecksumMismatch), ...) otherwise.
pub fn read_frame(r: &mut (impl Read + ?Sized)) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    fill(r, &mut header, FrameError::Closed)?;
    if header[..4] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    if header[4] != PROTO_VERSION {
        return Err(FrameError::BadVersion(header[4]));
    }
    let len = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let checksum = u64::from_le_bytes(header[9..17].try_into().expect("8 bytes"));
    let mut payload = vec![0u8; len];
    fill(r, &mut payload, FrameError::Torn)?;
    if fnv1a(&payload) != checksum {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok(payload)
}

// ----------------------------------------------------------------------
// The request/response vocabulary.
// ----------------------------------------------------------------------

/// A wire-encodable job description. Workload closures cannot cross the
/// wire, so a spec names a workload in the server's registry (the
/// [`JobFactory`](crate::server::JobFactory)) plus its parameter —
/// exactly the information a restarted service needs to re-attach
/// payloads to recovered journal entries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// The job id (unique within the queue, conventionally prefixed by
    /// the campaign).
    pub id: String,
    /// Wrong-path technique label (`nowp`, `instrec`, `conv`, `wpemul`).
    pub mode: String,
    /// Workload registry name the server's factory resolves.
    pub workload: String,
    /// Workload parameter (loop trips or equivalent).
    pub arg: i64,
}

impl JobSpec {
    /// The content digest used as the idempotent request id: an FNV-1a
    /// hash over every field plus the campaign, mirroring the result
    /// cache's content-addressing. Identical submits — and only
    /// identical submits — share a digest.
    #[must_use]
    pub fn digest(&self, campaign: &str) -> String {
        let h = Fnv1a::new()
            .update(campaign.as_bytes())
            .update(&[0])
            .update(self.id.as_bytes())
            .update(&[0])
            .update(self.mode.as_bytes())
            .update(&[0])
            .update(self.workload.as_bytes())
            .update(&[0])
            .update(&self.arg.to_le_bytes())
            .finish();
        format!("{h:016x}")
    }

    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("id".into(), Value::Str(self.id.clone())),
            ("mode".into(), Value::Str(self.mode.clone())),
            ("workload".into(), Value::Str(self.workload.clone())),
            ("arg".into(), Value::Int(self.arg)),
        ])
    }

    fn from_value(doc: &Value) -> Result<JobSpec, String> {
        Ok(JobSpec {
            id: str_field(doc, "id")?,
            mode: str_field(doc, "mode")?,
            workload: str_field(doc, "workload")?,
            arg: int_field(doc, "arg")?,
        })
    }
}

fn str_field(doc: &Value, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn int_field(doc: &Value, key: &str) -> Result<i64, String> {
    doc.get(key)
        .and_then(Value::as_int)
        .ok_or_else(|| format!("missing integer field `{key}`"))
}

fn uint_field(doc: &Value, key: &str) -> Result<u64, String> {
    u64::try_from(int_field(doc, key)?).map_err(|_| format!("field `{key}` must be non-negative"))
}

/// A request the campaign server understands. Each maps onto one queue
/// API: `Register` → `register`, `Submit` → `enqueue`, `Status` →
/// `stats`, `Cancel` → `cancel_token`, `PoisonList` → `poison_jobs`,
/// `DrainReport` → the merged deterministic report, `Shutdown` → the
/// graceful drain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Register (or re-register) a campaign, optionally with a
    /// per-campaign admission quota on live jobs.
    Register {
        /// Campaign id.
        campaign: String,
        /// Admission quota on live (pending + leased) jobs, layered
        /// under the queue's global capacity. `None` = no quota.
        quota: Option<u64>,
    },
    /// Submit one job under a campaign, idempotently.
    Submit {
        /// Content digest of (campaign, job); see [`JobSpec::digest`].
        request_id: String,
        /// Campaign id.
        campaign: String,
        /// The job description.
        job: JobSpec,
    },
    /// Aggregate queue counters.
    Status,
    /// Fire the service-wide stop token (abandons in-flight work; the
    /// durable state is intact and a restart resumes it).
    Cancel,
    /// The id-sorted poison-job list.
    PoisonList,
    /// The deterministic merged campaign report, renderable mid-flight.
    DrainReport,
    /// Graceful drain: stop accepting submits, finish leased jobs,
    /// flush the journal, emit the final report, exit.
    Shutdown,
}

impl Request {
    /// Encodes the request as canonical JSON bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let obj = match self {
            Request::Register { campaign, quota } => {
                let mut fields = vec![
                    ("request".into(), Value::Str("register".into())),
                    ("campaign".into(), Value::Str(campaign.clone())),
                ];
                if let Some(quota) = quota {
                    fields.push((
                        "quota".into(),
                        Value::Int(i64::try_from(*quota).unwrap_or(i64::MAX)),
                    ));
                }
                Value::Obj(fields)
            }
            Request::Submit {
                request_id,
                campaign,
                job,
            } => Value::Obj(vec![
                ("request".into(), Value::Str("submit".into())),
                ("request_id".into(), Value::Str(request_id.clone())),
                ("campaign".into(), Value::Str(campaign.clone())),
                ("job".into(), job.to_value()),
            ]),
            Request::Status => tag_only("request", "status"),
            Request::Cancel => tag_only("request", "cancel"),
            Request::PoisonList => tag_only("request", "poison-list"),
            Request::DrainReport => tag_only("request", "drain-report"),
            Request::Shutdown => tag_only("request", "shutdown"),
        };
        obj.to_json().into_bytes()
    }

    /// Decodes a request from payload bytes.
    ///
    /// # Errors
    ///
    /// A description of the malformation; the server answers with a
    /// typed [`Response::Error`] and keeps the connection.
    pub fn decode(payload: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("payload not UTF-8: {e}"))?;
        let doc = parse(text)?;
        let tag = str_field(&doc, "request")?;
        Ok(match tag.as_str() {
            "register" => Request::Register {
                campaign: str_field(&doc, "campaign")?,
                quota: match doc.get("quota") {
                    Some(v) => Some(
                        v.as_int()
                            .and_then(|q| u64::try_from(q).ok())
                            .ok_or_else(|| "quota must be a non-negative integer".to_string())?,
                    ),
                    None => None,
                },
            },
            "submit" => Request::Submit {
                request_id: str_field(&doc, "request_id")?,
                campaign: str_field(&doc, "campaign")?,
                job: JobSpec::from_value(doc.get("job").ok_or_else(|| "missing job".to_string())?)?,
            },
            "status" => Request::Status,
            "cancel" => Request::Cancel,
            "poison-list" => Request::PoisonList,
            "drain-report" => Request::DrainReport,
            "shutdown" => Request::Shutdown,
            other => return Err(format!("unknown request `{other}`")),
        })
    }
}

fn tag_only(key: &str, tag: &str) -> Value {
    Value::Obj(vec![(key.to_string(), Value::Str(tag.to_string()))])
}

/// What the queue did with a submitted job (the wire form of the
/// driver's `Enqueued`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Queued (or re-attached to a recovered pending entry).
    Accepted,
    /// A durable result already exists; no re-run.
    AlreadyComplete,
    /// Quarantined as poison from an earlier run; reported, not re-run.
    Poisoned,
}

impl SubmitOutcome {
    /// Stable wire label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SubmitOutcome::Accepted => "accepted",
            SubmitOutcome::AlreadyComplete => "already-complete",
            SubmitOutcome::Poisoned => "poisoned",
        }
    }

    fn from_label(label: &str) -> Option<SubmitOutcome> {
        Some(match label {
            "accepted" => SubmitOutcome::Accepted,
            "already-complete" => SubmitOutcome::AlreadyComplete,
            "poisoned" => SubmitOutcome::Poisoned,
            _ => return None,
        })
    }
}

/// Aggregate queue counters over the wire (the `Status` reply body).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatusReply {
    /// Jobs pending with a payload.
    pub pending: u64,
    /// Jobs currently leased to workers.
    pub leased: u64,
    /// Jobs with a durable `Committed` state.
    pub committed: u64,
    /// Jobs with a durable `Failed` state.
    pub failed: u64,
    /// Poison jobs quarantined.
    pub quarantined: u64,
}

impl StatusReply {
    /// Whether every submitted job has reached a terminal state.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.pending == 0 && self.leased == 0
    }

    /// Terminal jobs (committed + failed + quarantined).
    #[must_use]
    pub fn terminal(&self) -> u64 {
        self.committed + self.failed + self.quarantined
    }
}

/// One poison job over the wire (mirrors the driver's `PoisonJob`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoisonEntry {
    /// The job id.
    pub id: String,
    /// The campaign it belonged to.
    pub campaign: String,
    /// Identical failures accumulated.
    pub failures: u64,
    /// The recorded last error.
    pub error: String,
}

impl From<&PoisonJob> for PoisonEntry {
    fn from(job: &PoisonJob) -> PoisonEntry {
        PoisonEntry {
            id: job.id.clone(),
            campaign: job.campaign.clone(),
            failures: u64::from(job.failures),
            error: job.error.clone(),
        }
    }
}

/// A typed server response. Backpressure (`Saturated`, `Overloaded`,
/// `QuotaExceeded`, `Draining`) is vocabulary, not an error string: the
/// client's retry policy can tell "try again later" from "never".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The request was applied.
    Ok,
    /// A submit resolved.
    Submitted {
        /// What the queue did.
        outcome: SubmitOutcome,
        /// Whether this reply came from the idempotency dedup map (a
        /// retry of an already-applied submit).
        deduped: bool,
    },
    /// The queue is at global capacity (the depth/capacity the driver's
    /// `Saturated` error now carries, passed through verbatim).
    Saturated {
        /// Live jobs at the moment of rejection.
        depth: u64,
        /// The configured capacity.
        capacity: u64,
    },
    /// The campaign is at its admission quota.
    QuotaExceeded {
        /// The campaign.
        campaign: String,
        /// Its live jobs at the moment of rejection.
        live: u64,
        /// Its configured quota.
        quota: u64,
    },
    /// The server is at its connection bound.
    Overloaded {
        /// Open connections.
        active: u64,
        /// The configured bound.
        max: u64,
    },
    /// The server is draining; no new submits are admitted.
    Draining,
    /// Aggregate queue counters.
    Stats(StatusReply),
    /// The poison-job list.
    Poison(Vec<PoisonEntry>),
    /// The deterministic merged campaign report.
    Report(String),
    /// The request was malformed or unapplicable.
    Error(String),
}

impl Response {
    /// Encodes the response as canonical JSON bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let int = |v: u64| Value::Int(i64::try_from(v).unwrap_or(i64::MAX));
        let obj = match self {
            Response::Ok => tag_only("response", "ok"),
            Response::Submitted { outcome, deduped } => Value::Obj(vec![
                ("response".into(), Value::Str("submitted".into())),
                ("enqueued".into(), Value::Str(outcome.label().into())),
                ("deduped".into(), Value::Int(i64::from(*deduped))),
            ]),
            Response::Saturated { depth, capacity } => Value::Obj(vec![
                ("response".into(), Value::Str("saturated".into())),
                ("depth".into(), int(*depth)),
                ("capacity".into(), int(*capacity)),
            ]),
            Response::QuotaExceeded {
                campaign,
                live,
                quota,
            } => Value::Obj(vec![
                ("response".into(), Value::Str("quota-exceeded".into())),
                ("campaign".into(), Value::Str(campaign.clone())),
                ("live".into(), int(*live)),
                ("quota".into(), int(*quota)),
            ]),
            Response::Overloaded { active, max } => Value::Obj(vec![
                ("response".into(), Value::Str("overloaded".into())),
                ("active".into(), int(*active)),
                ("max".into(), int(*max)),
            ]),
            Response::Draining => tag_only("response", "draining"),
            Response::Stats(s) => Value::Obj(vec![
                ("response".into(), Value::Str("stats".into())),
                ("pending".into(), int(s.pending)),
                ("leased".into(), int(s.leased)),
                ("committed".into(), int(s.committed)),
                ("failed".into(), int(s.failed)),
                ("quarantined".into(), int(s.quarantined)),
            ]),
            Response::Poison(jobs) => Value::Obj(vec![
                ("response".into(), Value::Str("poison".into())),
                (
                    "jobs".into(),
                    Value::Arr(
                        jobs.iter()
                            .map(|j| {
                                Value::Obj(vec![
                                    ("id".into(), Value::Str(j.id.clone())),
                                    ("campaign".into(), Value::Str(j.campaign.clone())),
                                    ("failures".into(), int(j.failures)),
                                    ("error".into(), Value::Str(j.error.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Report(text) => Value::Obj(vec![
                ("response".into(), Value::Str("report".into())),
                ("text".into(), Value::Str(text.clone())),
            ]),
            Response::Error(message) => Value::Obj(vec![
                ("response".into(), Value::Str("error".into())),
                ("message".into(), Value::Str(message.clone())),
            ]),
        };
        obj.to_json().into_bytes()
    }

    /// Decodes a response from payload bytes.
    ///
    /// # Errors
    ///
    /// A description of the malformation.
    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("payload not UTF-8: {e}"))?;
        let doc = parse(text)?;
        let tag = str_field(&doc, "response")?;
        Ok(match tag.as_str() {
            "ok" => Response::Ok,
            "submitted" => Response::Submitted {
                outcome: SubmitOutcome::from_label(&str_field(&doc, "enqueued")?)
                    .ok_or_else(|| "unknown enqueue outcome".to_string())?,
                deduped: int_field(&doc, "deduped")? != 0,
            },
            "saturated" => Response::Saturated {
                depth: uint_field(&doc, "depth")?,
                capacity: uint_field(&doc, "capacity")?,
            },
            "quota-exceeded" => Response::QuotaExceeded {
                campaign: str_field(&doc, "campaign")?,
                live: uint_field(&doc, "live")?,
                quota: uint_field(&doc, "quota")?,
            },
            "overloaded" => Response::Overloaded {
                active: uint_field(&doc, "active")?,
                max: uint_field(&doc, "max")?,
            },
            "draining" => Response::Draining,
            "stats" => Response::Stats(StatusReply {
                pending: uint_field(&doc, "pending")?,
                leased: uint_field(&doc, "leased")?,
                committed: uint_field(&doc, "committed")?,
                failed: uint_field(&doc, "failed")?,
                quarantined: uint_field(&doc, "quarantined")?,
            }),
            "poison" => {
                let jobs = doc
                    .get("jobs")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| "missing jobs array".to_string())?;
                Response::Poison(
                    jobs.iter()
                        .map(|j| {
                            Ok(PoisonEntry {
                                id: str_field(j, "id")?,
                                campaign: str_field(j, "campaign")?,
                                failures: uint_field(j, "failures")?,
                                error: str_field(j, "error")?,
                            })
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                )
            }
            "report" => Response::Report(str_field(&doc, "text")?),
            "error" => Response::Error(str_field(&doc, "message")?),
            other => return Err(format!("unknown response `{other}`")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn spec() -> JobSpec {
        JobSpec {
            id: "alpha/j0".into(),
            mode: "wpemul".into(),
            workload: "countdown".into(),
            arg: 40,
        }
    }

    #[test]
    fn frames_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").expect("write");
        write_frame(&mut wire, b"").expect("empty payloads are legal");
        let mut r = Cursor::new(wire);
        assert_eq!(read_frame(&mut r).expect("first"), b"hello");
        assert_eq!(read_frame(&mut r).expect("second"), b"");
        assert_eq!(read_frame(&mut r), Err(FrameError::Closed));
    }

    #[test]
    fn torn_and_damaged_frames_are_typed_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").expect("write");

        // Torn anywhere mid-frame: header or payload.
        for cut in [1, HEADER_LEN - 1, HEADER_LEN + 3] {
            let mut r = Cursor::new(wire[..cut].to_vec());
            assert_eq!(read_frame(&mut r), Err(FrameError::Torn), "cut at {cut}");
        }

        // A flipped payload byte is a checksum mismatch, never a panic.
        let mut corrupt = wire.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        assert_eq!(
            read_frame(&mut Cursor::new(corrupt)),
            Err(FrameError::ChecksumMismatch)
        );

        // Bad magic and a hostile length field are refused up front.
        let mut bad_magic = wire.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            read_frame(&mut Cursor::new(bad_magic)),
            Err(FrameError::BadMagic)
        );
        let mut huge = wire.clone();
        huge[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(huge)),
            Err(FrameError::TooLarge(_))
        ));

        // A peer on another protocol version is refused before its
        // payload is read: older frames carry fields this version dropped.
        for version in [PROTO_VERSION - 1, PROTO_VERSION + 1] {
            let mut other = wire.clone();
            other[4] = version;
            assert_eq!(
                read_frame(&mut Cursor::new(other)),
                Err(FrameError::BadVersion(version))
            );
        }
    }

    #[test]
    fn requests_roundtrip() {
        let requests = [
            Request::Register {
                campaign: "alpha".into(),
                quota: Some(16),
            },
            Request::Register {
                campaign: "beta".into(),
                quota: None,
            },
            Request::Submit {
                request_id: spec().digest("alpha"),
                campaign: "alpha".into(),
                job: spec(),
            },
            Request::Submit {
                request_id: spec().digest("beta"),
                campaign: "beta".into(),
                job: JobSpec {
                    mode: "nowp".into(),
                    arg: -1,
                    ..spec()
                },
            },
            Request::Status,
            Request::Cancel,
            Request::PoisonList,
            Request::DrainReport,
            Request::Shutdown,
        ];
        for request in requests {
            let payload = request.encode();
            let decoded = Request::decode(&payload).expect("decode");
            assert_eq!(decoded, request);
            // The slim vocabulary: no scheduling fields on the wire.
            let text = String::from_utf8(payload).expect("JSON payload");
            assert!(!text.contains("weight") && !text.contains("priority"));
        }
    }

    #[test]
    fn responses_roundtrip() {
        let responses = [
            Response::Ok,
            Response::Submitted {
                outcome: SubmitOutcome::AlreadyComplete,
                deduped: true,
            },
            Response::Saturated {
                depth: 4096,
                capacity: 4096,
            },
            Response::QuotaExceeded {
                campaign: "alpha".into(),
                live: 8,
                quota: 8,
            },
            Response::Overloaded {
                active: 32,
                max: 32,
            },
            Response::Draining,
            Response::Stats(StatusReply {
                pending: 1,
                leased: 2,
                committed: 3,
                failed: 0,
                quarantined: 1,
            }),
            Response::Poison(vec![PoisonEntry {
                id: "a/x".into(),
                campaign: "a".into(),
                failures: 3,
                error: "lease expired".into(),
            }]),
            Response::Report("job  mode\n".into()),
            Response::Error("unknown campaign".into()),
        ];
        for response in responses {
            let decoded = Response::decode(&response.encode()).expect("decode");
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn digest_is_content_addressed() {
        let a = spec();
        assert_eq!(a.digest("alpha"), a.digest("alpha"), "deterministic");
        assert_ne!(a.digest("alpha"), a.digest("beta"), "campaign matters");
        let mut b = spec();
        b.arg += 1;
        assert_ne!(a.digest("alpha"), b.digest("alpha"), "content matters");
    }
}
