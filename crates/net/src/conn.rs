//! One client connection: a blocking reader thread, a writer thread, and
//! the [`Waker`] they share.
//!
//! The **reader** blocks in [`read_frame`] and posts each request to the
//! [`Waker`]. The **writer** owns a [`Conn`]: it dispatches the posted
//! requests (policy lives in `server.rs`), writes responses with one
//! blocking socket write, and parks on the [`Waker`] with no timeout except
//! the nearest search deadline. Wakes are sticky, so a hit released
//! between the writer's poll and its park is never missed.
//!
//! The writer's pipeline queue keeps responses in request order: only
//! its head writes (a streaming head sends each new batch of hits); the
//! entries behind it buffer in their tickets and are only checked for an
//! expired deadline. With [`MAX_PIPELINE`] requests in flight the reader
//! stops reading, so the TCP window carries the backpressure; a client
//! that stops reading blocks only its own writer. Dropping a [`Conn`]
//! drops its tickets, which cancels their searches. A frame that stalls
//! mid-transfer for [`STALL_TIMEOUT`] is malformed; the read timeout is
//! armed only while a frame is partly read.
//!
//! Each search response's [`QueryTrace`] is the writer's from admission
//! to the response's last byte: [`Conn::flush`] adds each write to its
//! `frame_flush` span and stamps its `first_hit`, then hands the trace of
//! every response that ended to the server.

use std::io::{BufRead, BufReader, ErrorKind};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oasis_engine::{Generation, QueryTicket};
use oasis_obs::sync::{self, Condvar, Deque, Mutex, MutexGuard};
use oasis_obs::trace::stage;
use oasis_obs::QueryTrace;

use crate::frame::{read_frame, write_frame, Frame};
use crate::server::ServedIndex;
use crate::NetError;

/// Requests that may be in flight (posted or in the writer's pipeline)
/// on one connection before the reader stops reading.
pub(crate) const MAX_PIPELINE: usize = 32;

/// A frame that stalls mid-transfer this long is malformed.
const STALL_TIMEOUT: Duration = Duration::from_secs(30);

/// Why the reader stopped.
pub(crate) enum ReadEnd {
    /// The peer half-closed between frames: answer, then close.
    Eof,
    /// The peer is gone (reset, or another socket error): close at once.
    Gone,
    /// A framing violation: answer `Malformed` after the queued
    /// responses, then close.
    Malformed(NetError),
}

#[derive(Default)]
struct Slot {
    /// Requests posted by the reader, not yet taken by the writer.
    inbox: Vec<Frame>,
    read_end: Option<ReadEnd>,
    /// Requests in the writer's pipeline, as of its last park.
    queued: usize,
    /// A wake is pending; the writer's next park consumes it.
    woken: bool,
    /// The connection is being torn down: both threads stop.
    closed: bool,
}

/// One connection's parking spot: the writer parks until the reader
/// posts, a search's hook fires, or the server wakes or closes it; the
/// reader parks while the pipeline is full.
pub(crate) struct Waker {
    slot: Mutex<Slot>,
    writer: Condvar,
    reader: Condvar,
}

impl Waker {
    pub(crate) fn new() -> Self {
        Waker {
            slot: Mutex::new(Slot::default()),
            writer: Condvar::new(),
            reader: Condvar::new(),
        }
    }

    fn wake_locked(&self, mut slot: MutexGuard<'_, Slot>) {
        // A wake already pending covers this one.
        if !std::mem::replace(&mut slot.woken, true) {
            self.writer.notify_one();
        }
    }

    /// End the writer's park, or make its next park return at once.
    pub(crate) fn wake(&self) {
        self.wake_locked(self.slot.lock());
    }

    /// Tear the connection down: the writer leaves at its next park, and
    /// a reader waiting for room stops.
    pub(crate) fn close(&self) {
        self.slot.lock().closed = true;
        self.writer.notify_one();
        self.reader.notify_one();
    }

    /// Reader side: wait for pipeline room; false once closed.
    fn wait_for_room(&self) -> bool {
        let mut slot = self.slot.lock();
        while !slot.closed && slot.inbox.len() + slot.queued >= MAX_PIPELINE {
            slot = self.reader.wait(slot);
        }
        !slot.closed
    }

    /// Reader side: hand the writer a request, or the end of reading.
    fn post(&self, next: Result<Frame, ReadEnd>) {
        let mut slot = self.slot.lock();
        match next {
            Ok(frame) => slot.inbox.push(frame),
            Err(end) => slot.read_end = Some(end),
        }
        self.wake_locked(slot);
    }

    /// Writer side: park until woken, closed, or `deadline`; then take the
    /// posted requests, the reader's end (delivered once) and whether the
    /// connection is closed. `queued` is the writer's pipeline length,
    /// which frees room for the reader as it shrinks.
    pub(crate) fn park(
        &self,
        queued: usize,
        deadline: Option<Instant>,
    ) -> (Vec<Frame>, Option<ReadEnd>, bool) {
        let mut slot = self.slot.lock();
        slot.queued = queued;
        self.reader.notify_one();
        while !slot.woken && !slot.closed {
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            slot = match left {
                None => self.writer.wait(slot),
                Some(left) if left.is_zero() => break,
                Some(left) => self.writer.wait_timeout(slot, left),
            };
        }
        slot.woken = false;
        let frames = std::mem::take(&mut slot.inbox);
        slot.queued += frames.len();
        (frames, slot.read_end.take(), slot.closed)
    }
}

/// The reader thread: post each request on `stream` until the peer
/// stops, breaks the protocol, or the connection closes.
pub(crate) fn read_requests(stream: &TcpStream, waker: &Waker) {
    let mut reader = BufReader::new(stream);
    while waker.wait_for_room() {
        let next = read_request(&mut reader);
        let ended = next.is_err();
        waker.post(next);
        if ended {
            return;
        }
    }
}

/// Block for the next request; the stall timeout is armed only once the
/// frame's first byte is buffered.
fn read_request(reader: &mut BufReader<&TcpStream>) -> Result<Frame, ReadEnd> {
    loop {
        match reader.fill_buf() {
            Ok([]) => return Err(ReadEnd::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(ReadEnd::Gone),
        }
    }
    let stream = *reader.get_ref();
    let armed = stream.set_read_timeout(Some(STALL_TIMEOUT));
    let frame = read_frame(reader);
    if armed.and(stream.set_read_timeout(None)).is_err() {
        return Err(ReadEnd::Gone);
    }
    frame.map_err(|e| match e {
        NetError::Io(e) => match e.kind() {
            ErrorKind::UnexpectedEof => {
                ReadEnd::Malformed(NetError::Protocol("connection closed mid-frame".into()))
            }
            ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                ReadEnd::Malformed(NetError::Protocol("frame stalled mid-transfer".into()))
            }
            _ => ReadEnd::Gone,
        },
        other => ReadEnd::Malformed(other),
    })
}

/// The open connections, each with its writer's waker and its socket.
/// The accept limit and `connections_open` count them, shutdown wakes
/// them, and a drain that outlives its grace period force-closes them.
pub(crate) struct Registry {
    roster: Mutex<Roster>,
    /// Signalled when a connection leaves or shutdown begins.
    changed: Condvar,
}

#[derive(Default)]
struct Roster {
    /// Each open connection's id, writer's waker and socket.
    conns: Vec<(u64, Arc<Waker>, Arc<TcpStream>)>,
    shutting: bool,
}

impl Registry {
    pub(crate) fn new() -> Self {
        Registry {
            roster: Mutex::new(Roster::default()),
            changed: Condvar::new(),
        }
    }

    /// Connections open right now.
    pub(crate) fn open(&self) -> usize {
        self.roster.lock().conns.len()
    }

    /// Register a connection, unless `max` are already open.
    pub(crate) fn admit(
        &self,
        id: u64,
        waker: &Arc<Waker>,
        stream: &Arc<TcpStream>,
        max: usize,
    ) -> bool {
        let mut roster = self.roster.lock();
        let admitted = roster.conns.len() < max;
        if admitted {
            roster
                .conns
                .push((id, Arc::clone(waker), Arc::clone(stream)));
        }
        admitted
    }

    /// Unregister a connection whose threads are done with it.
    pub(crate) fn leave(&self, id: u64) {
        self.roster.lock().conns.retain(|(open, ..)| *open != id);
        self.changed.notify_all();
    }

    /// Shutdown began: wake every writer so it can drain and close.
    pub(crate) fn shut_down(&self) {
        let mut roster = self.roster.lock();
        roster.shutting = true;
        roster.conns.iter().for_each(|(_, waker, _)| waker.wake());
        drop(roster);
        self.changed.notify_all();
    }

    /// Block until a connection leaves or shutdown begins. False at once
    /// when none is open, since then no close would end the wait.
    pub(crate) fn wait_for_leave(&self) -> bool {
        let mut roster = self.roster.lock();
        let open = roster.conns.len();
        while open > 0 && !roster.shutting && roster.conns.len() >= open {
            roster = self.changed.wait(roster);
        }
        open > 0 || roster.shutting
    }

    /// Wait up to `grace` for every connection to leave, then force-close
    /// the rest: peers that stopped reading must not wedge shutdown.
    pub(crate) fn drain(&self, grace: Duration) {
        let deadline = Instant::now() + grace;
        let mut roster = self.roster.lock();
        while !roster.conns.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            roster = self.changed.wait_timeout(roster, left);
        }
        for (_, waker, stream) in &roster.conns {
            waker.close();
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// One request's slot in the pipeline queue.
pub(crate) enum Pending {
    /// The response frames are known (handshake, admin reply, error);
    /// write them when this entry reaches the head of the queue.
    Ready(Vec<Frame>),
    /// An admitted search whose hits stream in from an engine worker.
    Streaming(Box<StreamingSearch>),
}

/// An admitted search the writer streams to the client.
pub(crate) struct StreamingSearch {
    /// The reading end of the worker's hit stream; dropping it cancels
    /// the search.
    pub(crate) ticket: QueryTicket,
    /// The client's deadline, if it set one.
    pub(crate) deadline: Option<Instant>,
    /// The requested deadline in milliseconds (for the error message).
    pub(crate) deadline_ms: Option<u32>,
    /// The resolved score threshold (echoed in the Done frame).
    pub(crate) min_score: oasis_align::Score,
    /// The generation pinned at admission: the query executes on it, and
    /// hit names, `Done.generation` and the trace read from it.
    pub(crate) generation: Arc<Generation<ServedIndex>>,
    /// The server's WAL-fsync counter at admission; the trace reports
    /// the delta (fsyncs that ran while this query was in flight).
    pub(crate) fsyncs_at_submit: u64,
    /// The query's record, born at admission: the writer's stages as they
    /// happen, the worker's once the search is done.
    pub(crate) trace: QueryTrace,
}

/// What the server's policy made of one streaming entry this pass.
pub(crate) enum Advance {
    /// Nothing new to write.
    Idle,
    /// The next batch of `Hit` frames; the search is still running.
    Batch(Vec<Frame>),
    /// The response's last frames: remaining hits then `Done`, or a
    /// terminal error.
    End(Vec<Frame>),
}

/// The writer's side of one client connection.
pub(crate) struct Conn {
    stream: Arc<TcpStream>,
    /// One flush's encoded response bytes (reused across flushes).
    out: Vec<u8>,
    /// In-flight requests, in arrival order.
    pub(crate) pending: Deque<Pending>,
    /// The peer half-closed its side; close once the pipeline drains.
    pub(crate) peer_eof: bool,
    /// Take no more requests; close once the pipeline drains.
    pub(crate) closing: bool,
    /// The terminal shutdown frame was queued (sent at most once).
    pub(crate) term_queued: bool,
}

impl Conn {
    pub(crate) fn new(stream: Arc<TcpStream>) -> Conn {
        Conn {
            stream,
            out: Vec::new(),
            pending: Deque::new(),
            peer_eof: false,
            closing: false,
            term_queued: false,
        }
    }

    /// Is any admitted search still streaming?
    pub(crate) fn has_streaming(&self) -> bool {
        self.pending
            .iter()
            .any(|p| matches!(p, Pending::Streaming(_)))
    }

    /// The nearest deadline of a search still in the pipeline: the only
    /// time the writer must wake without being woken.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.pending
            .iter()
            .filter_map(|p| match p {
                Pending::Streaming(search) => search.deadline,
                Pending::Ready(_) => None,
            })
            .min()
    }

    /// Write what the head of the pipeline has: every leading ready
    /// response, then the streaming head's new batch of hits (and, once
    /// it ends, its last frames, after which the next entry is the head).
    /// `advance` is the policy hook: called with `head = true` for the
    /// entry that may write, `false` for a streaming entry behind it
    /// (which may only end, with a terminal error, never write hits).
    /// The frames are encoded, then written with one blocking socket
    /// write; an `Err` means the connection is dead.
    ///
    /// The encode plus the write is the batch's flush time. It is added to
    /// the `frame_flush` span of every search response that wrote in this
    /// call, and a response whose first `Hit` frame was in the call gets a
    /// `first_hit` span ending when the write did. The traces of the
    /// responses that ended here are pushed onto `ended`.
    pub(crate) fn flush<F>(
        &mut self,
        mut advance: F,
        ended: &mut Vec<QueryTrace>,
    ) -> Result<(), NetError>
    where
        F: FnMut(&mut StreamingSearch, bool) -> Advance,
    {
        let flush_start = Instant::now();
        // Responses that ended in this call, and whether each sent a hit.
        let mut done: Vec<(QueryTrace, bool)> = Vec::new();
        // The head kept streaming and sent hits in this call.
        let mut head_sent = false;
        loop {
            match self.pending.front_mut() {
                None => break,
                Some(Pending::Ready(_)) => {
                    let Some(Pending::Ready(frames)) = self.pending.pop_front() else {
                        break;
                    };
                    self.encode(&frames)?;
                }
                Some(Pending::Streaming(search)) => match advance(search, true) {
                    Advance::Idle => break,
                    Advance::Batch(frames) => {
                        self.encode(&frames)?;
                        head_sent = true;
                        break;
                    }
                    Advance::End(frames) => {
                        self.encode(&frames)?;
                        let Some(Pending::Streaming(search)) = self.pending.pop_front() else {
                            break;
                        };
                        let sent = frames.iter().any(|f| matches!(f, Frame::Hit(_)));
                        done.push((search.trace, sent));
                    }
                },
            }
        }
        // Entries behind the head only buffer; a deadline can still end
        // them (their tickets drop here, cancelling the searches).
        for entry in self.pending.iter_mut().skip(1) {
            if let Pending::Streaming(search) = entry {
                if let Advance::End(frames) = advance(search, false) {
                    *entry = Pending::Ready(frames);
                }
            }
        }
        if !self.out.is_empty() {
            let written = sync::write_all(&mut &*self.stream, &self.out);
            self.out.clear();
            written?;
        }
        let flush_end = Instant::now();
        let charge = |trace: &mut QueryTrace, sent_hit: bool| {
            trace.record_span(stage::FRAME_FLUSH, flush_start, flush_end);
            if sent_hit && trace.span(stage::FIRST_HIT).is_none() {
                trace.record_span(stage::FIRST_HIT, trace.born(), flush_end);
            }
        };
        if head_sent {
            if let Some(Pending::Streaming(search)) = self.pending.front_mut() {
                charge(&mut search.trace, true);
            }
        }
        for (mut trace, sent) in done {
            charge(&mut trace, sent);
            ended.push(trace);
        }
        Ok(())
    }

    /// Encode `frames` into the output buffer. Writing into a `Vec` cannot
    /// block; only encoding can fail, and an unencodable response is
    /// connection-fatal.
    fn encode(&mut self, frames: &[Frame]) -> Result<(), NetError> {
        for frame in frames {
            write_frame(&mut self.out, frame)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waker_releases_a_parked_waiter() {
        let waker = Arc::new(Waker::new());
        let remote = Arc::clone(&waker);
        let start = Instant::now();
        let t = std::thread::spawn(move || {
            sync::sleep(Duration::from_millis(30));
            remote.wake();
        });
        waker.park(0, None);
        assert!(start.elapsed() < Duration::from_secs(5));
        sync::join(t).unwrap();
    }

    #[test]
    fn wake_before_wait_is_sticky() {
        let waker = Waker::new();
        waker.wake();
        let start = Instant::now();
        waker.park(0, Some(start + Duration::from_secs(10)));
        assert!(start.elapsed() < Duration::from_secs(1));
        // The wake was consumed: the next park waits for its deadline.
        let start = Instant::now();
        waker.park(0, Some(start + Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn a_full_pipeline_parks_the_reader_until_the_writer_frees_room() {
        let waker = Arc::new(Waker::new());
        for _ in 0..MAX_PIPELINE {
            assert!(waker.wait_for_room());
            waker.post(Ok(Frame::MetricsRequest));
        }
        let (frames, _, _) = waker.park(0, None);
        assert_eq!(frames.len(), MAX_PIPELINE);
        let reader = {
            let waker = Arc::clone(&waker);
            std::thread::spawn(move || waker.wait_for_room())
        };
        sync::sleep(Duration::from_millis(30));
        assert!(!reader.is_finished(), "the reader must wait for room");
        // The writer's pipeline shrinks by one; the reader may post again.
        waker.wake();
        waker.park(MAX_PIPELINE - 1, None);
        assert!(sync::join(reader).unwrap());
        // A closed connection releases the reader with `false`.
        waker.close();
        assert!(!waker.wait_for_room());
    }

    /// The waker's slot is shared by the reader, the writer and every
    /// search's readiness hook: a guard held across a blocking call
    /// stalls them all.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "read_frame while holding 1 lock guard(s)")]
    fn a_slot_guard_held_across_a_frame_read_panics() {
        let waker = Waker::new();
        let slot = waker.slot.lock();
        let _ = read_frame(&mut &[0u8; 0][..]);
        drop(slot);
    }
}
