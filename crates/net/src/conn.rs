//! Per-connection state machine for the event-driven server.
//!
//! A [`Conn`] owns one nonblocking `TcpStream` plus everything the
//! event loop needs to service it without ever blocking: a partial-read
//! buffer that frames are parsed out of as bytes arrive, a
//! partial-write buffer that responses drain from as the socket
//! accepts them, and the ordered queue of in-flight requests that
//! makes **pipelining** work — a client may send several requests
//! back-to-back before reading, and responses come back in request
//! order even when the underlying queries complete out of order.
//!
//! The pipeline queue is the ordering mechanism: every parsed request
//! appends one [`Pending`] entry, either already-answerable
//! ([`Pending::Ready`]) or awaiting an engine ticket
//! ([`Pending::Waiting`]). Completed waits are rewritten to `Ready` in
//! place, and only the *leading run* of `Ready` entries is flushed —
//! a response never overtakes an earlier request's.
//!
//! Backpressure is structural. At most [`MAX_PIPELINE`] requests may
//! be in flight per connection; once the queue is full the loop simply
//! stops reading this socket, the kernel receive buffer fills, and the
//! TCP window closes — the client feels backpressure without the
//! server buffering unboundedly. (The admission queue's
//! [`ErrorCode::Busy`] answer is still the cross-connection limit; the
//! pipeline cap is per-connection.)
//!
//! This module is mechanism only: it never decides *what* to answer.
//! Dispatch policy (search admission, the result cache, admin frames)
//! lives in `server.rs`.
//!
//! [`ErrorCode::Busy`]: crate::ErrorCode

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use oasis_engine::{CacheKey, Generation, QueryTicket};
use oasis_obs::trace::stage;
use oasis_obs::QueryTrace;

use crate::frame::{decode_header, write_frame, Frame, HEADER_LEN};
use crate::server::ServedIndex;
use crate::NetError;

/// Requests that may be in flight (admitted or answerable but
/// unflushed) on one connection before the loop stops reading it.
pub(crate) const MAX_PIPELINE: usize = 32;

/// A frame that stalls mid-transfer this long is malformed; between
/// frames a connection may idle forever.
const STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Socket bytes consumed per tick per connection, so one firehose
/// client cannot starve the rest of the loop.
const READ_QUANTUM: usize = 256 * 1024;

/// One request's slot in the pipeline queue.
pub(crate) enum Pending {
    /// The response frames are known; flush them when this entry
    /// reaches the head of the queue. A traced search carries its
    /// [`QueryTrace`] along so [`Conn::flush`] can stamp the
    /// `frame_flush` span and hand the finished trace back to the loop.
    Ready(Vec<Frame>, Option<Box<QueryTrace>>),
    /// A search is executing in the engine; the loop polls it via the
    /// ticket once its completion token arrives.
    Waiting(WaitingSearch),
}

/// An admitted search the event loop is tracking to completion.
pub(crate) struct WaitingSearch {
    /// The numeric token naming this query (its `BatchQuery` id).
    pub(crate) token: u64,
    /// Completion handle; polled with `try_take`, never waited on.
    pub(crate) ticket: QueryTicket,
    /// Set once the engine's completion hook delivered this token:
    /// from then on, an empty ticket means the query panicked.
    pub(crate) notified: bool,
    /// The client's deadline, if it set one.
    pub(crate) deadline: Option<Instant>,
    /// The requested deadline in milliseconds (for the error message).
    pub(crate) deadline_ms: Option<u32>,
    /// When the query was admitted.
    pub(crate) submitted: Instant,
    /// Cache slot to fill on completion (keyed by the pinned generation).
    pub(crate) cache_key: Option<CacheKey>,
    /// The resolved score threshold (echoed in the Done frame).
    pub(crate) min_score: oasis_align::Score,
    /// The generation pinned at admission: the query executes on it, and
    /// hit names, `Done.generation` and the trace read from it.
    pub(crate) generation: Arc<Generation<ServedIndex>>,
    /// The server's WAL-fsync counter at admission; the trace reports
    /// the delta (fsyncs that ran while this query was in flight).
    pub(crate) fsyncs_at_submit: u64,
}

/// What one read pass over a connection produced.
pub(crate) struct ReadEvent {
    /// Complete frames parsed this pass, in arrival order.
    pub(crate) frames: Vec<Frame>,
    /// A connection-fatal condition: [`NetError::Io`] means the peer is
    /// gone (close silently); anything else is a framing violation
    /// (answer `Malformed`, then close).
    pub(crate) fatal: Option<NetError>,
    /// Whether any bytes arrived (drives the loop's park decision).
    pub(crate) progress: bool,
}

/// One live client connection owned by the event loop.
pub(crate) struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet parsed into frames (a partial frame
    /// survives here across ticks).
    read_buf: Vec<u8>,
    /// Encoded response bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// How much of `write_buf` the socket has accepted.
    written: usize,
    /// In-flight requests, in arrival order.
    pub(crate) pending: VecDeque<Pending>,
    /// The peer half-closed its side; read no more, flush and close.
    pub(crate) peer_eof: bool,
    /// Stop reading; close once the pipeline and write buffer drain.
    pub(crate) closing: bool,
    /// The terminal shutdown frame was queued (sent at most once).
    pub(crate) term_queued: bool,
    /// Last time bytes arrived while a partial frame was pending.
    last_read_progress: Instant,
}

impl Conn {
    /// Adopt an accepted stream: nonblocking, no Nagle delay.
    pub(crate) fn new(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            pending: VecDeque::new(),
            peer_eof: false,
            closing: false,
            term_queued: false,
            last_read_progress: Instant::now(),
        })
    }

    /// Queue an already-known response (handshake, admin reply, error).
    pub(crate) fn push_ready(&mut self, frames: Vec<Frame>) {
        self.pending.push_back(Pending::Ready(frames, None));
    }

    /// Queue an already-known response carrying a query trace (a traced
    /// cache hit: the response is immediate but the trace still flows
    /// through the flush span and the slow-query log).
    pub(crate) fn push_ready_traced(&mut self, frames: Vec<Frame>, trace: Box<QueryTrace>) {
        self.pending.push_back(Pending::Ready(frames, Some(trace)));
    }

    /// Queue an in-flight search.
    pub(crate) fn push_waiting(&mut self, waiting: WaitingSearch) {
        self.pending.push_back(Pending::Waiting(waiting));
    }

    /// How many more requests this connection may admit before the
    /// pipeline cap pauses its socket.
    pub(crate) fn read_budget(&self) -> usize {
        MAX_PIPELINE.saturating_sub(self.pending.len())
    }

    /// Does any queued request still await its engine ticket?
    pub(crate) fn has_waiting(&self) -> bool {
        self.pending
            .iter()
            .any(|p| matches!(p, Pending::Waiting(_)))
    }

    /// Mark queued searches whose completion tokens arrived. Returns
    /// true if any entry matched (the loop should poll its ticket now).
    pub(crate) fn mark_notified(&mut self, tokens: &std::collections::HashSet<u64>) -> bool {
        let mut any = false;
        for entry in &mut self.pending {
            if let Pending::Waiting(w) = entry {
                if !w.notified && tokens.contains(&w.token) {
                    w.notified = true;
                    any = true;
                }
            }
        }
        any
    }

    /// Rewrite completed waits to ready responses, in place. `resolve`
    /// is the policy hook: given a waiting search it returns `Some`
    /// response frames (plus the query's trace, if it was traced) once
    /// the search finished (or timed out), `None` while still in flight.
    pub(crate) fn poll_waiting<F>(&mut self, mut resolve: F) -> bool
    where
        F: FnMut(&mut WaitingSearch) -> Option<(Vec<Frame>, Option<Box<QueryTrace>>)>,
    {
        let mut any = false;
        for entry in &mut self.pending {
            if let Pending::Waiting(w) = entry {
                if let Some((frames, trace)) = resolve(w) {
                    *entry = Pending::Ready(frames, trace);
                    any = true;
                }
            }
        }
        any
    }

    /// Pull bytes off the socket and parse up to `budget` complete
    /// frames. Never blocks: reading stops at `WouldBlock`, at the
    /// per-tick quantum, or when the budget is spent (leftover bytes
    /// stay buffered for the next tick).
    pub(crate) fn read_frames(&mut self, budget: usize) -> ReadEvent {
        let mut event = ReadEvent {
            frames: Vec::new(),
            fatal: None,
            progress: false,
        };
        if budget == 0 || self.peer_eof || self.closing {
            return event;
        }
        let mut chunk = [0u8; 8192];
        let mut received = 0usize;
        while received < READ_QUANTUM {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    if let Some(part) = chunk.get(..n) {
                        self.read_buf.extend_from_slice(part);
                    }
                    received += n;
                    event.progress = true;
                    self.last_read_progress = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    event.fatal = Some(NetError::Io(e));
                    return event;
                }
            }
        }
        while event.frames.len() < budget {
            let Some(&header) = self.read_buf.first_chunk::<HEADER_LEN>() else {
                break;
            };
            let (frame_type, len) = match decode_header(header) {
                Ok(decoded) => decoded,
                Err(e) => {
                    event.fatal = Some(e);
                    return event;
                }
            };
            let total = HEADER_LEN + len as usize;
            if self.read_buf.len() < total {
                break;
            }
            let frame = match self.read_buf.get(HEADER_LEN..total) {
                Some(payload) => Frame::decode(frame_type, payload),
                None => break,
            };
            self.read_buf.drain(..total);
            match frame {
                Ok(frame) => event.frames.push(frame),
                Err(e) => {
                    event.fatal = Some(e);
                    return event;
                }
            }
        }
        if self.peer_eof && !self.read_buf.is_empty() {
            event.fatal = Some(NetError::Protocol(
                "connection closed mid-frame".to_string(),
            ));
        } else if !self.read_buf.is_empty() && self.last_read_progress.elapsed() >= STALL_TIMEOUT {
            // A partial frame sat untouched for the stall window.
            event.fatal = Some(NetError::Protocol("frame stalled mid-transfer".to_string()));
        }
        event
    }

    /// Flush the leading run of ready responses: encode them into the
    /// write buffer, then push as much as the socket accepts. Returns
    /// whether any bytes moved; an `Err` means the connection is dead.
    ///
    /// Traces riding on flushed entries get a `frame_flush` span
    /// covering the encode plus this call's synchronous write attempt
    /// (bytes a full socket defers to later ticks are not attributed),
    /// and are handed back through `finished` for the loop to deposit
    /// in the slow-query log.
    pub(crate) fn flush(&mut self, finished: &mut Vec<QueryTrace>) -> Result<bool, NetError> {
        let flush_start = Instant::now();
        let mut flushed_traces: Vec<QueryTrace> = Vec::new();
        while let Some(Pending::Ready(..)) = self.pending.front() {
            let Some(Pending::Ready(frames, trace)) = self.pending.pop_front() else {
                break;
            };
            for frame in &frames {
                // Writing into a Vec cannot block; only encoding can
                // fail, and an unencodable response is connection-fatal.
                write_frame(&mut self.write_buf, frame)?;
            }
            if let Some(trace) = trace {
                flushed_traces.push(*trace);
            }
        }
        let mut wrote = false;
        while let Some(remaining) = self.write_buf.get(self.written..) {
            if remaining.is_empty() {
                break;
            }
            match self.stream.write(remaining) {
                Ok(0) => {
                    return Err(NetError::Io(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    )))
                }
                Ok(n) => {
                    self.written += n;
                    wrote = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        if self.written == self.write_buf.len() && self.written > 0 {
            self.write_buf.clear();
            self.written = 0;
        }
        if !flushed_traces.is_empty() {
            let flush_end = Instant::now();
            for mut trace in flushed_traces {
                trace.record_span(stage::FRAME_FLUSH, flush_start, flush_end);
                finished.push(trace);
            }
        }
        Ok(wrote)
    }

    /// Nothing left to do: no queued requests and every response byte
    /// has been handed to the kernel.
    pub(crate) fn is_drained(&self) -> bool {
        self.pending.is_empty() && self.written == self.write_buf.len()
    }
}
