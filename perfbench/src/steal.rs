//! Hypervisor steal: the share of the CPU time this machine's processes
//! wanted that the hypervisor ran other guests in instead (`/proc/stat`).
//! On a shared virtual machine it comes and goes over minutes and
//! stretches CPU-bound work by 1 / (1 − share).

use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The machine's cumulative CPU time, in clock ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTimes {
    /// user + nice + system + irq + softirq.
    pub busy: u64,
    pub steal: u64,
}

impl CpuTimes {
    /// The counters now.
    pub fn now() -> Result<Self, String> {
        let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
        parse(&stat).ok_or_else(|| "/proc/stat: no cpu line".to_string())
    }

    /// Share of the CPU time wanted since `earlier` that was stolen.
    pub fn steal_share_since(&self, earlier: &CpuTimes) -> f64 {
        let busy = self.busy.saturating_sub(earlier.busy);
        let steal = self.steal.saturating_sub(earlier.steal);
        if busy + steal == 0 {
            0.0
        } else {
            steal as f64 / (busy + steal) as f64
        }
    }
}

/// The all-CPU line of `/proc/stat` text: `cpu user nice system idle
/// iowait irq softirq steal ...`.
pub fn parse(stat: &str) -> Option<CpuTimes> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    if f.len() < 8 {
        return None;
    }
    Some(CpuTimes {
        busy: f[0] + f[1] + f[2] + f[5] + f[6],
        steal: f[7],
    })
}

/// Samples the machine's CPU times once a second on a thread of its own,
/// so that any interval of the run can be given its steal share.
pub struct Sampler {
    samples: Arc<Mutex<Vec<(Instant, CpuTimes)>>>,
    stop: Option<mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// How often the [`Sampler`] reads `/proc/stat`: long enough that a
/// window holds about a hundred busy clock ticks of one CPU.
pub const SAMPLE_EVERY: Duration = Duration::from_secs(1);

impl Sampler {
    /// Start sampling.
    pub fn start() -> Result<Self, String> {
        let samples = Arc::new(Mutex::new(vec![(Instant::now(), CpuTimes::now()?)]));
        let (stop, stopped) = mpsc::channel::<()>();
        let shared = Arc::clone(&samples);
        let thread = std::thread::spawn(move || {
            while let Err(mpsc::RecvTimeoutError::Timeout) = stopped.recv_timeout(SAMPLE_EVERY) {
                if let Ok(now) = CpuTimes::now() {
                    shared
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((Instant::now(), now));
                }
            }
        });
        Ok(Sampler {
            samples,
            stop: Some(stop),
            thread: Some(thread),
        })
    }

    /// The samples so far, plus one taken now.
    pub fn log(&self) -> StealLog {
        let mut samples = self
            .samples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        if let Ok(now) = CpuTimes::now() {
            samples.push((Instant::now(), now));
        }
        StealLog { samples }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Fewest clock ticks of wanted (busy + stolen) CPU time a steal share is
/// taken over. A one-second window of a busy CPU holds about a hundred; on
/// an idle machine a window holds a few, too few for a share, so it is
/// widened into its neighbours.
pub const MIN_TICKS: u64 = 100;

/// Timestamped CPU times taken through a run.
#[derive(Debug, Clone, Default)]
pub struct StealLog {
    pub samples: Vec<(Instant, CpuTimes)>,
}

impl StealLog {
    /// Steal share over the sampling windows covering `from..to`: from
    /// the last sample at or before `from` to the first at or after `to`
    /// (the log's ends where it does not reach that far), widened a window
    /// each way while it holds fewer than [`MIN_TICKS`] of wanted CPU time.
    pub fn share(&self, from: Instant, to: Instant) -> f64 {
        let s = &self.samples;
        if s.len() < 2 {
            return 0.0;
        }
        let mut a = s
            .partition_point(|(t, _)| *t <= from)
            .saturating_sub(1)
            .min(s.len() - 2);
        let mut b = s.partition_point(|(t, _)| *t < to).clamp(a + 1, s.len() - 1);
        let wanted = |a: usize, b: usize| {
            let (x, y) = (&s[a].1, &s[b].1);
            (y.busy + y.steal).saturating_sub(x.busy + x.steal)
        };
        while wanted(a, b) < MIN_TICKS && (a > 0 || b + 1 < s.len()) {
            a = a.saturating_sub(1);
            b = (b + 1).min(s.len() - 1);
        }
        s[b].1.steal_share_since(&s[a].1)
    }
}
