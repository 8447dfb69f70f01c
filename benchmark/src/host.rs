//! What the host and the process report about themselves: `/proc/self`
//! counters, a fixed spin kernel, and the *reference request* — a fixed
//! piece of served work that shares no code with the system under test,
//! timed all through a daemon workload's window so that the window's
//! numbers can be stated in the time of a quiet reference host.

use std::time::Instant;

/// A point-in-time reading of `/proc/self`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system CPU seconds of the whole process.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches, summed over threads.
    pub ctx_switches: u64,
    pub threads: u64,
    /// Peak resident set (`VmHWM`), MB.
    pub peak_rss_mb: f64,
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

pub fn proc_sample() -> ProcSample {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    // utime and stime are fields 14 and 15 of /proc/self/stat, counted
    // after the parenthesised command name (which may contain spaces).
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let mut fields = after.split_whitespace().skip(11);
    let ticks = |s: Option<&str>| s.and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    let cpu_ticks = ticks(fields.next()) + ticks(fields.next());
    // Context switches are per thread; the process total is their sum.
    let mut ctx = 0u64;
    if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
        for e in dir.flatten() {
            if let Ok(s) = std::fs::read_to_string(e.path().join("status")) {
                ctx += status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0)
                    + status_field(&s, "nonvoluntary_ctxt_switches:").unwrap_or(0);
            }
        }
    }
    ProcSample {
        // USER_HZ is 100 on every Linux ABI this runs on.
        cpu_s: cpu_ticks as f64 / 100.0,
        ctx_switches: ctx,
        threads: status_field(&status, "Threads:").unwrap_or(0),
        peak_rss_mb: status_field(&status, "VmHWM:").unwrap_or(0) as f64 / 1024.0,
    }
}

/// Fixed CPU-only work (an xorshift chain, ~100 µs on the reference
/// host): touches no memory, so its time moves only with the core's speed.
pub fn ref_kernel_us() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..100_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as f64 / 1e3
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One "snapshot" of the reference request's evidence: small vectors
/// behind a vector, the allocation shape of the real thing.
type RefEvidence = Vec<Vec<Vec<u64>>>;

fn ref_evidence() -> RefEvidence {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..600)
        .map(|_| {
            (0..16)
                .map(|_| {
                    (0..32)
                        .map(|_| {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            x
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// The work of one reference request: clone the evidence (ten thousand
/// small allocations, 2.5 MB), index it in a hash map, sum through the map.
fn ref_work(evidence: &RefEvidence) -> u64 {
    let copy = evidence.clone();
    let mut index = std::collections::HashMap::new();
    for (i, snap) in copy.iter().enumerate() {
        for (j, epoch) in snap.iter().enumerate() {
            index.insert(epoch[0], (i, j));
        }
    }
    let mut sum = 0u64;
    for snap in &copy {
        for epoch in snap {
            let (i, j) = index[&epoch[0]];
            sum = sum.wrapping_add(copy[i][j].iter().fold(0, |a, &b| a.wrapping_add(b)));
        }
    }
    sum
}

/// A reference server: a thread behind a loopback TCP connection that
/// answers each 8-byte request with [`ref_work`] and a 4 KiB reply. It is
/// std-only and shares no code with the system under test, so the time of
/// one request moves with the host alone — with the same things a served
/// request is made of: a socket round trip, a cross-thread wake-up,
/// allocation and memory traffic.
pub struct RefServer {
    stream: std::net::TcpStream,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl RefServer {
    pub fn spawn() -> std::io::Result<RefServer> {
        use std::io::{Read, Write};
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let thread = std::thread::Builder::new()
            .name("ref-server".into())
            .spawn(move || {
                let Ok((mut s, _)) = listener.accept() else {
                    return;
                };
                let _ = s.set_nodelay(true);
                let evidence = ref_evidence();
                let mut req = [0u8; 8];
                let mut reply = [0u8; 4096];
                while s.read_exact(&mut req).is_ok() {
                    let sum = ref_work(&evidence);
                    reply[..8].copy_from_slice(&sum.to_le_bytes());
                    if s.write_all(&reply).is_err() {
                        break;
                    }
                }
            })?;
        let stream = std::net::TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RefServer {
            stream,
            thread: Some(thread),
        })
    }

    /// One reference request; its wall time in ns.
    pub fn call(&mut self) -> std::io::Result<u64> {
        use std::io::{Read, Write};
        let t = Instant::now();
        self.stream.write_all(&[1u8; 8])?;
        let mut reply = [0u8; 4096];
        self.stream.read_exact(&mut reply)?;
        std::hint::black_box(reply[0]);
        Ok(t.elapsed().as_nanos() as u64)
    }
}

impl Drop for RefServer {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// What one reference request takes on the reference host in a quiet hour.
/// Only a scale: it puts host-normalised times near the wall-clock ones.
pub const REF_NOMINAL_NS: u64 = 1_800_000;

/// One reading of the host's speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostReading {
    /// When it ended, ns since the window opened.
    pub end_ns: u64,
    /// Wall of the reference request.
    pub request_ns: u64,
    /// Wall of the spin kernel that followed it, µs.
    pub spin_us: f64,
    /// Wall of the whole reading: time the generator did not spend on work.
    pub spent_ns: u64,
}

/// The reference server and the readings taken from it in one window.
pub struct HostGauge {
    server: RefServer,
    readings: Vec<HostReading>,
}

impl HostGauge {
    /// Spawn the reference server and warm it.
    pub fn start() -> std::io::Result<HostGauge> {
        let mut server = RefServer::spawn()?;
        for _ in 0..50 {
            server.call()?;
        }
        Ok(HostGauge {
            server,
            readings: Vec::new(),
        })
    }

    /// End of the newest reading of this window, ns since it opened.
    pub fn last_ns(&self) -> u64 {
        self.readings.last().map_or(0, |r| r.end_ns)
    }

    /// Take `n` readings, back to back. Call it with nothing in flight:
    /// the reference request must meet an otherwise idle process.
    pub fn read(&mut self, t0: Instant, n: usize) -> std::io::Result<()> {
        crate::alloc::uncounted(|| {
            for _ in 0..n {
                let t = Instant::now();
                let request_ns = self.server.call()?;
                let spin_us = ref_kernel_us();
                self.readings.push(HostReading {
                    end_ns: t0.elapsed().as_nanos() as u64,
                    request_ns,
                    spin_us,
                    spent_ns: t.elapsed().as_nanos() as u64,
                });
            }
            Ok(())
        })
    }

    /// The window's readings; the gauge starts the next window empty.
    pub fn take(&mut self) -> Vec<HostReading> {
        std::mem::take(&mut self.readings)
    }
}
