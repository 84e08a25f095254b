//! Load generators over loopback TCP: a closed-loop query stream and an
//! open- or closed-loop append stream.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use oasis_net::{Client, RemoteHit, SearchRequest};

/// One timed search, from send to its terminal frame.
#[derive(Debug, Clone)]
pub struct QuerySample {
    /// When the request was written.
    pub send: Instant,
    /// When the first hit frame arrived (`None` without hits).
    pub first_hit: Option<Instant>,
    /// When the terminal frame arrived.
    pub done: Instant,
    /// The hits, in arrival order.
    pub hits: Vec<RemoteHit>,
    /// The terminal `Done` frame's hit count, service and total time.
    pub done_hits: u32,
    /// Server-side execution time, µs.
    pub service_us: u64,
    /// Server-side admission-to-flush time, µs.
    pub total_us: u64,
    /// Why the request failed, if it did.
    pub error: Option<String>,
}

impl QuerySample {
    /// Send to terminal frame, ms.
    pub fn latency_ms(&self) -> f64 {
        ms(self.done - self.send)
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect_timeout(addr, Duration::from_secs(10)).map_err(|e| format!("connect: {e}"))
}

/// One connection, one request in flight: each request is sent when the
/// previous response has completed.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[SearchRequest],
) -> Result<Vec<QuerySample>, String> {
    let mut client = connect(addr)?;
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let mut samples = Vec::with_capacity(requests.len());
    for req in requests {
        let send = Instant::now();
        let mut first_hit = None;
        let mut hits = Vec::new();
        let result = client.search(req.clone()).and_then(|mut stream| {
            while let Some(hit) = stream.next_hit()? {
                first_hit.get_or_insert_with(Instant::now);
                hits.push(hit);
            }
            stream.finish()
        });
        let done = Instant::now();
        samples.push(match result {
            Ok(d) => QuerySample {
                send,
                first_hit,
                done,
                hits,
                done_hits: d.hits,
                service_us: d.service_us,
                total_us: d.total_us,
                error: None,
            },
            Err(e) => QuerySample {
                send,
                first_hit,
                done,
                hits,
                done_hits: 0,
                service_us: 0,
                total_us: 0,
                error: Some(e.to_string()),
            },
        });
    }
    Ok(samples)
}

/// One acknowledged (or failed) append of the open-loop stream.
#[derive(Debug, Clone)]
pub struct AppendSample {
    /// When the schedule said to send it.
    pub intended: Instant,
    /// When it was actually sent.
    pub sent: Instant,
    /// When the acknowledgement (or error) arrived.
    pub acked: Instant,
    /// Why it failed, if it did.
    pub error: Option<String>,
}

impl AppendSample {
    /// Acknowledgement time from the intended send time, ms.
    pub fn ack_ms(&self) -> f64 {
        ms(self.acked - self.intended)
    }

    /// How late the generator sent it, ms.
    pub fn lag_ms(&self) -> f64 {
        ms(self.sent - self.intended)
    }
}

/// Appends on one connection. With `schedule = Some((rate_hz, start))`
/// they are open loop: record `i` is due at `start + i / rate_hz`
/// whatever happened to earlier ones, and is timed from that due time, so
/// a slow acknowledgement delays later sends, which shows as generator
/// lag. With `None` they are closed loop: each is sent as soon as the
/// previous one is acknowledged and timed from its send.
pub fn appends(
    addr: SocketAddr,
    records: &[String],
    schedule: Option<(f64, Instant)>,
) -> Result<Vec<AppendSample>, String> {
    let mut client = connect(addr)?;
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let mut samples = Vec::with_capacity(records.len());
    for (i, fasta) in records.iter().enumerate() {
        let intended = match schedule {
            Some((rate_hz, start)) => start + Duration::from_secs_f64(i as f64 / rate_hz),
            None => Instant::now(),
        };
        let now = Instant::now();
        if intended > now {
            std::thread::sleep(intended - now);
        }
        let sent = Instant::now();
        let result = client.append(fasta.clone());
        let acked = Instant::now();
        samples.push(AppendSample {
            intended,
            sent,
            acked,
            error: match result {
                Ok(done) if done.appended_seqs == 1 => None,
                Ok(done) => Some(format!("appended {} sequences, sent 1", done.appended_seqs)),
                Err(e) => Some(e.to_string()),
            },
        });
    }
    Ok(samples)
}
