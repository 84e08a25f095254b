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
//! ([`Pending::Ready`]) or an admitted search whose hits stream in from
//! an engine worker ([`Pending::Streaming`]). Only the entry at the
//! *head* of the queue writes: a streaming head drains each new batch of
//! hits into `Hit` frames as the worker releases them, and once it ends
//! (`Done` or a terminal error) the next entry becomes the head. Entries
//! behind it buffer in their tickets — a response never overtakes an
//! earlier request's — and are only checked for an expired deadline.
//!
//! Backpressure is structural. At most [`MAX_PIPELINE`] requests may
//! be in flight per connection; once the queue is full the loop simply
//! stops reading this socket, the kernel receive buffer fills, and the
//! TCP window closes — the client feels backpressure without the
//! server buffering unboundedly. (The admission queue's
//! [`ErrorCode::Busy`] answer is still the cross-connection limit; the
//! pipeline cap is per-connection.) Dropping a connection drops its
//! tickets, which cancels their searches.
//!
//! This module is mechanism only: it never decides *what* to answer.
//! Dispatch policy (search admission, the result cache, admin frames,
//! what a batch of hits becomes on the wire) lives in `server.rs`.
//!
//! [`ErrorCode::Busy`]: crate::ErrorCode

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use oasis_engine::{CacheKey, Generation, QueryTicket};
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
    /// reaches the head of the queue. A traced response (a cache hit)
    /// carries its [`QueryTrace`] along so [`Conn::flush`] can time the
    /// flush and hand the trace back to the loop.
    Ready(Vec<Frame>, Option<Box<QueryTrace>>),
    /// An admitted search whose hits stream in from an engine worker.
    Streaming(Box<StreamingSearch>),
}

/// An admitted search the event loop streams to the client.
pub(crate) struct StreamingSearch {
    /// The reading end of the worker's hit stream; dropping it cancels
    /// the search.
    pub(crate) ticket: QueryTicket,
    /// The client's deadline, if it set one.
    pub(crate) deadline: Option<Instant>,
    /// The requested deadline in milliseconds (for the error message).
    pub(crate) deadline_ms: Option<u32>,
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
    /// Loop-side timings of the batches streamed so far.
    pub(crate) clock: StreamClock,
}

/// The loop's side of one response: when it was admitted, when its first
/// hit reached the socket, and the time its batches spent being resolved
/// and flushed, summed over batches.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StreamClock {
    /// When the request was admitted (or answered, for a cache hit).
    pub(crate) admitted: Instant,
    /// When the first `Hit` frame was handed to the socket.
    pub(crate) first_hit: Option<Instant>,
    /// When the first batch was resolved, and the total resolve time.
    pub(crate) resolve: Option<(Instant, Duration)>,
    /// When the first batch was flushed, and the total flush time.
    pub(crate) flush: Option<(Instant, Duration)>,
}

impl StreamClock {
    pub(crate) fn new(admitted: Instant) -> Self {
        StreamClock {
            admitted,
            first_hit: None,
            resolve: None,
            flush: None,
        }
    }

    /// Add the interval `start..end` to a summed stage.
    pub(crate) fn add(stage: &mut Option<(Instant, Duration)>, start: Instant, end: Instant) {
        let spent = end.saturating_duration_since(start);
        match stage {
            Some((_, total)) => *total += spent,
            None => *stage = Some((start, spent)),
        }
    }
}

/// What the loop's policy made of one streaming entry this tick.
pub(crate) enum Advance {
    /// Nothing new to write.
    Idle,
    /// The next batch of `Hit` frames; the search is still running.
    Batch(Vec<Frame>),
    /// The response's last frames — remaining hits then `Done`, or a
    /// terminal error — plus the trace of a traced search that completed.
    End(Vec<Frame>, Option<Box<QueryTrace>>),
}

/// A response whose last frame was handed to the socket this flush, for
/// the loop to file into its stage histograms and slow-query log.
pub(crate) struct Flushed {
    /// Its loop-side timings.
    pub(crate) clock: StreamClock,
    /// Its trace, if it was traced and answered (not an error).
    pub(crate) trace: Option<QueryTrace>,
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

    /// Queue an admitted search.
    pub(crate) fn push_streaming(&mut self, search: Box<StreamingSearch>) {
        self.pending.push_back(Pending::Streaming(search));
    }

    /// How many more requests this connection may admit before the
    /// pipeline cap pauses its socket.
    pub(crate) fn read_budget(&self) -> usize {
        MAX_PIPELINE.saturating_sub(self.pending.len())
    }

    /// Is any admitted search still streaming?
    pub(crate) fn has_streaming(&self) -> bool {
        self.pending
            .iter()
            .any(|p| matches!(p, Pending::Streaming(_)))
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

    /// Write what the head of the pipeline has: every leading ready
    /// response, then the streaming head's new batch of hits (and, once
    /// it ends, its last frames, after which the next entry is the head).
    /// `advance` is the policy hook: called with `head = true` for the
    /// entry that may write, `false` for a streaming entry behind it
    /// (which may only end, with a terminal error, never write hits).
    /// Encoded frames go into the write buffer, and as much of it as the
    /// socket accepts is written. Returns whether anything moved; an
    /// `Err` means the connection is dead.
    ///
    /// The encode plus this call's synchronous write attempt is the
    /// batch's flush time (bytes a full socket defers to later ticks are
    /// not attributed). It is added to the clock of every response that
    /// wrote in this call, and a response whose first `Hit` frame was in
    /// the call takes the write's end as its first-hit instant. Responses
    /// that ended here come back through `flushed`.
    pub(crate) fn flush<F>(
        &mut self,
        mut advance: F,
        flushed: &mut Vec<Flushed>,
    ) -> Result<bool, NetError>
    where
        F: FnMut(&mut StreamingSearch, bool) -> Advance,
    {
        let flush_start = Instant::now();
        let mut moved = false;
        // Responses that ended in this call, and whether each sent a hit.
        let mut ended: Vec<(Flushed, bool)> = Vec::new();
        // The head kept streaming and sent hits in this call.
        let mut head_sent = false;
        loop {
            match self.pending.front_mut() {
                None => break,
                Some(Pending::Ready(..)) => {
                    let Some(Pending::Ready(frames, trace)) = self.pending.pop_front() else {
                        break;
                    };
                    self.encode(&frames)?;
                    moved = true;
                    if let Some(trace) = trace {
                        let clock = StreamClock::new(trace.born());
                        let trace = Some(*trace);
                        ended.push((Flushed { clock, trace }, false));
                    }
                }
                Some(Pending::Streaming(search)) => match advance(search, true) {
                    Advance::Idle => break,
                    Advance::Batch(frames) => {
                        self.encode(&frames)?;
                        moved = true;
                        head_sent = true;
                        break;
                    }
                    Advance::End(frames, trace) => {
                        self.encode(&frames)?;
                        moved = true;
                        let Some(Pending::Streaming(search)) = self.pending.pop_front() else {
                            break;
                        };
                        let sent = frames.iter().any(|f| matches!(f, Frame::Hit(_)));
                        let trace = trace.map(|t| *t);
                        let clock = search.clock;
                        ended.push((Flushed { clock, trace }, sent));
                    }
                },
            }
        }
        // Entries behind the head only buffer; a deadline can still end
        // them (their tickets drop here, cancelling the searches).
        for entry in self.pending.iter_mut().skip(1) {
            if let Pending::Streaming(search) = entry {
                if let Advance::End(frames, trace) = advance(search, false) {
                    *entry = Pending::Ready(frames, trace);
                    moved = true;
                }
            }
        }
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
                    moved = true;
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
        let flush_end = Instant::now();
        if head_sent {
            if let Some(Pending::Streaming(search)) = self.pending.front_mut() {
                stamp(&mut search.clock, flush_start, flush_end, true);
            }
        }
        for (mut done, sent) in ended {
            stamp(&mut done.clock, flush_start, flush_end, sent);
            flushed.push(done);
        }
        Ok(moved)
    }

    /// Encode `frames` into the write buffer. Writing into a `Vec` cannot
    /// block; only encoding can fail, and an unencodable response is
    /// connection-fatal.
    fn encode(&mut self, frames: &[Frame]) -> Result<(), NetError> {
        for frame in frames {
            write_frame(&mut self.write_buf, frame)?;
        }
        Ok(())
    }

    /// Nothing left to do: no queued requests and every response byte
    /// has been handed to the kernel.
    pub(crate) fn is_drained(&self) -> bool {
        self.pending.is_empty() && self.written == self.write_buf.len()
    }
}

/// Charge one flush (`start..end`) to a response's clock; `sent_hit`
/// marks the write that carried its first `Hit` frame.
fn stamp(clock: &mut StreamClock, start: Instant, end: Instant, sent_hit: bool) {
    StreamClock::add(&mut clock.flush, start, end);
    if sent_hit && clock.first_hit.is_none() {
        clock.first_hit = Some(end);
    }
}
