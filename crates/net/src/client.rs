//! The remote client: connect, verify the handshake, stream search
//! results, and issue admin requests.

use std::io::{BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::frame::{
    read_frame, write_frame, AppendDone, AppendRequest, Frame, Hello, MetricsReport, ReloadDone,
    ReloadRequest, RemoteHit, SearchDone, SearchRequest, TraceDump, PROTOCOL_VERSION,
};
use crate::NetError;

/// A connection to an [`crate::OasisServer`].
///
/// The server pipelines requests per connection, but this client keeps
/// the simpler one-at-a-time discipline: a search response must be
/// drained — or the stream dropped via [`HitStream`]'s bookkeeping —
/// before the next request goes out, and the client enforces that by
/// draining any unread response frames itself. (Pipelining callers
/// speak the frame layer directly; see `docs/PROTOCOL.md`.)
pub struct Client {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    hello: Hello,
    /// A search response is still (possibly) in flight on the stream.
    mid_response: bool,
}

impl Client {
    /// Connect to `addr` and complete the handshake: the server's
    /// [`Hello`] must carry the protocol magic and a version this client
    /// speaks, otherwise the connection is rejected with
    /// [`NetError::Protocol`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, NetError> {
        Self::handshake(TcpStream::connect(addr)?)
    }

    /// [`connect`](Client::connect) with `timeout` bounding *both* the
    /// TCP connect and the wait for the server's [`Hello`] — a hung or
    /// never-accepting server fails the call within roughly `timeout`
    /// (twice, worst case) instead of wedging the caller. The read
    /// timeout stays armed afterwards; clear or retune it with
    /// [`set_read_timeout`](Client::set_read_timeout).
    ///
    /// When `addr` resolves to several addresses, each is tried in turn
    /// with the full `timeout`.
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Client, NetError> {
        let mut last: Option<std::io::Error> = None;
        for addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, timeout) {
                Ok(stream) => {
                    // The kernel may complete the TCP handshake into a
                    // backlog the server never drains; the Hello read
                    // must be bounded too.
                    stream.set_read_timeout(Some(timeout))?;
                    return Self::handshake(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(NetError::Io(last.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        })))
    }

    fn handshake(stream: TcpStream) -> Result<Client, NetError> {
        stream.set_nodelay(true)?;
        let mut reader = stream.try_clone()?;
        let writer = BufWriter::new(stream);
        let hello = match read_frame(&mut reader)? {
            Frame::Hello(hello) => hello,
            Frame::Error(e) => return Err(NetError::Remote(e)),
            other => {
                return Err(NetError::Protocol(format!(
                    "expected a Hello handshake, got {}",
                    other.kind()
                )))
            }
        };
        if hello.protocol != PROTOCOL_VERSION {
            return Err(NetError::Protocol(format!(
                "server speaks protocol version {}, this client speaks {PROTOCOL_VERSION}",
                hello.protocol
            )));
        }
        Ok(Client {
            reader,
            writer,
            hello,
            mid_response: false,
        })
    }

    /// Bound every subsequent response read by `timeout` (`None` waits
    /// forever, the [`connect`](Client::connect) default). A timed-out
    /// read surfaces as [`NetError::Io`]; the stream should be dropped
    /// afterwards — a response may be mid-frame.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.reader.set_read_timeout(timeout)?;
        Ok(())
    }

    /// The server's handshake: protocol version, serving generation, and
    /// database geometry (alphabet, sequence and residue counts).
    pub fn hello(&self) -> &Hello {
        &self.hello
    }

    /// Drain any response frames a previously abandoned [`HitStream`]
    /// left unread, so the connection is at a request boundary.
    fn ensure_request_boundary(&mut self) -> Result<(), NetError> {
        while self.mid_response {
            match read_frame(&mut self.reader)? {
                Frame::Hit(_) => {}
                Frame::Done(_) | Frame::Error(_) => self.mid_response = false,
                other => {
                    return Err(NetError::Protocol(format!(
                        "unexpected {} frame while draining a response",
                        other.kind()
                    )))
                }
            }
        }
        Ok(())
    }

    fn request(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.ensure_request_boundary()?;
        write_frame(&mut self.writer, frame)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Expect a single-frame response, unwrapping server errors.
    fn response(&mut self, wanted: &'static str) -> Result<Frame, NetError> {
        match read_frame(&mut self.reader)? {
            Frame::Error(e) => Err(NetError::Remote(e)),
            frame if frame.kind() == wanted => Ok(frame),
            other => Err(NetError::Protocol(format!(
                "expected a {wanted} frame, got {}",
                other.kind()
            ))),
        }
    }

    /// Issue a search. Hits stream back in the engine's canonical online
    /// order through the returned [`HitStream`].
    pub fn search(&mut self, request: SearchRequest) -> Result<HitStream<'_>, NetError> {
        self.request(&Frame::Search(request))?;
        self.mid_response = true;
        Ok(HitStream {
            client: self,
            done: None,
        })
    }

    /// Issue a search and collect the whole response.
    pub fn search_collect(
        &mut self,
        request: SearchRequest,
    ) -> Result<(Vec<RemoteHit>, SearchDone), NetError> {
        let mut stream = self.search(request)?;
        let mut hits = Vec::new();
        while let Some(hit) = stream.next_hit()? {
            hits.push(hit);
        }
        let done = stream.finish()?;
        Ok((hits, done))
    }

    /// Fetch the server's admin snapshot: admission-queue state, latency
    /// tails, the serving generation, live-ingestion state, result-cache
    /// counters, connection/pipeline gauges, and per-generation and
    /// per-stage rows.
    pub fn metrics(&mut self) -> Result<MetricsReport, NetError> {
        self.request(&Frame::MetricsRequest)?;
        match self.response("Metrics")? {
            Frame::Metrics(report) => Ok(report),
            _ => unreachable!("response() returned the wanted kind"),
        }
    }

    /// The pre-version-5 name of [`metrics`](Client::metrics). Kept only
    /// because the repository benchmark (`perfbench/`) still calls it; it
    /// goes with the benchmark change of ROADMAP item 8.
    pub fn stats(&mut self) -> Result<MetricsReport, NetError> {
        self.metrics()
    }

    /// Dump the server's slow-query log: the traced queries whose
    /// admission-to-flush time crossed the server's `--slow-ms`
    /// threshold, oldest first, with full stage-span breakdowns.
    pub fn trace_dump(&mut self) -> Result<TraceDump, NetError> {
        self.request(&Frame::TraceDumpRequest)?;
        match self.response("TraceDump")? {
            Frame::TraceDump(dump) => Ok(dump),
            _ => unreachable!("response() returned the wanted kind"),
        }
    }

    /// Ask the server to load the artifact at `path` (a directory on the
    /// *server's* filesystem) and publish it as a fresh generation.
    pub fn reload(&mut self, path: impl Into<String>) -> Result<ReloadDone, NetError> {
        self.request(&Frame::Reload(ReloadRequest { path: path.into() }))?;
        match self.response("Reloaded")? {
            Frame::Reloaded(done) => Ok(done),
            _ => unreachable!("response() returned the wanted kind"),
        }
    }

    /// Durably append the sequences of `fasta` (FASTA text, parsed with
    /// the *server's* alphabet) to the serving index. On success the
    /// sequences are WAL-logged on the server and already answering
    /// queries from the layered (base + delta) index.
    pub fn append(&mut self, fasta: impl Into<String>) -> Result<AppendDone, NetError> {
        self.request(&Frame::Append(AppendRequest {
            fasta: fasta.into(),
        }))?;
        match self.response("Appended")? {
            Frame::Appended(done) => Ok(done),
            _ => unreachable!("response() returned the wanted kind"),
        }
    }

    /// Ask the server to begin a graceful shutdown; returns once the
    /// server acknowledges.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        self.request(&Frame::Shutdown)?;
        match self.response("ShutdownAck")? {
            Frame::ShutdownAck => Ok(()),
            _ => unreachable!("response() returned the wanted kind"),
        }
    }
}

/// A streaming search response: hits arrive one frame at a time, online.
pub struct HitStream<'c> {
    client: &'c mut Client,
    done: Option<SearchDone>,
}

impl HitStream<'_> {
    /// The next hit, or `None` once the terminal frame arrived. Server
    /// errors (Busy, deadline, shutdown, …) surface as
    /// [`NetError::Remote`] and terminate the response.
    pub fn next_hit(&mut self) -> Result<Option<RemoteHit>, NetError> {
        if self.done.is_some() {
            return Ok(None);
        }
        match read_frame(&mut self.client.reader)? {
            Frame::Hit(hit) => Ok(Some(hit)),
            Frame::Done(done) => {
                self.done = Some(done);
                self.client.mid_response = false;
                Ok(None)
            }
            Frame::Error(e) => {
                self.client.mid_response = false;
                Err(NetError::Remote(e))
            }
            other => Err(NetError::Protocol(format!(
                "unexpected {} frame inside a search response",
                other.kind()
            ))),
        }
    }

    /// Drain any remaining hits and return the terminal [`SearchDone`].
    pub fn finish(mut self) -> Result<SearchDone, NetError> {
        while self.next_hit()?.is_some() {}
        // `next_hit` only answers `None` once `done` is set, so this is
        // unreachable — but a protocol error beats a client panic.
        self.done.take().ok_or_else(|| {
            NetError::Protocol("search response ended without a Done frame".to_string())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn connect_timeout_bounds_a_never_accepting_server() {
        // Bind but never accept: the kernel completes the TCP handshake
        // into the backlog, so it is the armed *read* timeout (waiting
        // for a Hello that never comes) that must bound the call.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let timeout = Duration::from_millis(200);
        let start = Instant::now();
        let err = Client::connect_timeout(addr, timeout)
            .err()
            .expect("handshake cannot complete against a silent listener");
        assert!(
            matches!(err, NetError::Io(_)),
            "expected a timeout i/o error, got: {err}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "connect_timeout took {:?} against a never-accepting listener",
            start.elapsed()
        );
        drop(listener);
    }

    #[test]
    fn connect_timeout_reports_empty_resolution() {
        let empty: &[std::net::SocketAddr] = &[];
        let err = Client::connect_timeout(empty, Duration::from_millis(50))
            .err()
            .expect("no addresses means no connection");
        assert!(matches!(err, NetError::Io(_)));
    }
}
