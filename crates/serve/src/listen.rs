//! The listening socket, the accept loop, the process stop signal and the
//! frame service every frame speaker's accept side in the workspace runs
//! (the daemon here, the cluster front-end): one [`FrameService`] of shared
//! state, one session loop and one handle, with each side supplying only
//! its request handler.

use hawkeye_client::proto::{
    decode_request, read_frame, write_response, ProtoError, Request, Response, PROTO_VERSION,
    WRONG_SHARD_PREFIX,
};
use hawkeye_client::AnyStream;
use hawkeye_obs::flight as flight_kind;
use hawkeye_obs::names::{INGEST_WRONG_SHARD, SERVE_SESSIONS, SLOW_OPS};
use hawkeye_obs::{FlightRecorder, MetricKey, MetricsRegistry};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Requests slower than this (wall-clock ns) count as `slow_ops` and land
/// in the flight ring.
const SLOW_OP_NS: u64 = 10_000_000;

/// Flight-recorder ring capacity (events).
const FLIGHT_CAPACITY: usize = 256;

/// Where a daemon listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    Unix(PathBuf),
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    Tcp(String),
}

impl Endpoint {
    /// Bind a non-blocking listener. A previous unclean exit (`kill -9`)
    /// leaves a unix socket file behind; it is removed first.
    pub fn bind(&self) -> io::Result<Listener> {
        match self {
            Endpoint::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l, path.clone()))
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
        }
    }
}

/// A bound, non-blocking listener. Dropping it removes the unix socket
/// file, so a graceful stop never leaves a stale one behind.
pub enum Listener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl Listener {
    /// One pending connection, or `WouldBlock` when there is none.
    pub fn accept(&self) -> io::Result<AnyStream> {
        match self {
            Listener::Unix(l, _) => l.accept().map(|(s, _)| AnyStream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                // Acks are 5- and 13-byte frames; leaving Nagle on lets
                // delayed-ACK stall the client's credit window.
                let _ = s.set_nodelay(true);
                AnyStream::Tcp(s)
            }),
        }
    }

    /// The bound TCP address (for port-0 binds); `None` on a unix socket.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(..) => None,
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Whether a read error is the session's poll timeout expiring.
fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// The session's read side for one frame. The stream's 100 ms read timeout
/// is the idle poll that re-checks `stop` between frames; once a frame's
/// first byte has arrived, a timeout is a slow peer (a TCP retransmission,
/// a writer that paused), not idleness, so the read is retried until the
/// frame is whole. Giving up there would drop the bytes already read and
/// start the next read mid-frame. Mid-frame, `stop` is checked before every
/// read, so neither a stalled nor a trickling peer holds up a shutdown. A
/// frame already buffered costs no extra syscall.
struct FrameReader<'a> {
    stream: &'a mut AnyStream,
    stop: &'a AtomicBool,
    /// Whether a byte of the frame has been read.
    begun: bool,
}

impl Read for FrameReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.begun && self.stop.load(Ordering::SeqCst) {
                return Err(io::ErrorKind::TimedOut.into());
            }
            match self.stream.read(buf) {
                Err(e) if self.begun && timed_out(&e) => {}
                Ok(n) => {
                    self.begun = true;
                    return Ok(n);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// What every session of one frame service shares: the stop flag, the
/// metrics registry and the flight ring — one leaf mutex each, and nothing
/// is ever acquired while one is held — plus the shard-map epoch a `Hello`
/// is checked against. A daemon and a front are each one of these plus
/// their own request handler.
pub struct FrameService {
    pub(crate) stop: AtomicBool,
    pub metrics: Mutex<MetricsRegistry>,
    pub(crate) flight: Mutex<FlightRecorder>,
    /// The epoch a `Hello` must announce, if it announces one; `None` (a
    /// monolithic daemon) checks none.
    map_epoch: Option<u64>,
}

/// A request handler's answer: the latency histogram to time the request
/// under (if any) and the response.
pub type Answer = (Option<&'static str>, Response);

impl FrameService {
    /// A service whose registry holds each of `counters` at zero, so
    /// `Stats` (which reports every registered counter) names them all
    /// before the first event.
    pub fn new(map_epoch: Option<u64>, counters: &[&'static str]) -> FrameService {
        let mut m = MetricsRegistry::default();
        for &name in counters {
            m.add(MetricKey::global(name), 0);
        }
        FrameService {
            stop: AtomicBool::new(false),
            metrics: Mutex::new(m),
            flight: Mutex::new(FlightRecorder::new(FLIGHT_CAPACITY)),
            map_epoch,
        }
    }

    /// Add `by` to the global counter `name`.
    pub fn add(&self, name: &'static str, by: u64) {
        self.metrics
            .lock()
            .expect("metrics lock")
            .add(MetricKey::global(name), by);
    }

    /// One event in the flight ring.
    pub fn note(&self, kind: &'static str, what: &'static str, detail: String) {
        self.flight
            .lock()
            .expect("flight lock")
            .note(kind, what, detail);
    }

    /// The head of every `Stats` response: every registered counter, not a
    /// hand-maintained list.
    pub fn counter_fields(&self) -> Vec<(String, serde::Value)> {
        let m = self.metrics.lock().expect("metrics lock");
        m.counter_names()
            .into_iter()
            .map(|name| (name.to_string(), serde::Value::UInt(m.counter_total(name))))
            .collect()
    }

    /// The `Metrics` request: the full metrics snapshot plus the flight
    /// ring, as one JSON object.
    pub fn metrics_response(&self) -> Response {
        let snap = self.metrics.lock().expect("metrics lock").snapshot();
        let flight = self.flight.lock().expect("flight lock").to_value();
        Response::Metrics(serde::Value::Object(vec![
            ("metrics".into(), hawkeye_obs::emit::metrics_value(&snap)),
            ("flight".into(), flight),
        ]))
    }

    /// Run `accept_loop` over `listener` on a thread named `names[0]`,
    /// its sessions named `names[1]`. Once the loop returns — dropping
    /// `tick` and `handler` and whatever they own, such as the senders into
    /// the caller's own threads — `teardown` runs, and the listener is
    /// dropped last: a unix socket file outlives every thread. The handle
    /// carries `recovery`, what the caller found at start-up.
    pub fn serve<R, H>(
        self: &Arc<Self>,
        listener: Listener,
        names: [&'static str; 2],
        tick: impl FnMut() + Send + 'static,
        handler: impl FnMut() -> H + Send + 'static,
        teardown: impl FnOnce() + Send + 'static,
        recovery: R,
    ) -> ServiceHandle<R>
    where
        H: FnMut(Request, &mut Vec<u8>) -> Answer + Send + 'static,
    {
        let local_addr = listener.local_addr();
        let service = Arc::clone(self);
        let accept_thread = thread::Builder::new()
            .name(names[0].into())
            .spawn(move || {
                accept_loop(&listener, &service, names[1], tick, handler);
                teardown();
                drop(listener);
            })
            .expect("spawn accept loop");
        ServiceHandle {
            service: Arc::clone(self),
            accept_thread,
            local_addr,
            recovery,
        }
    }
}

/// A running frame service (`DaemonHandle`, `FrontHandle`); dropping the
/// handle does NOT stop it — call [`ServiceHandle::shutdown`].
pub struct ServiceHandle<R = ()> {
    pub(crate) service: Arc<FrameService>,
    accept_thread: JoinHandle<()>,
    /// Bound TCP address when listening on TCP (for port-0 binds).
    pub local_addr: Option<SocketAddr>,
    /// What start-up recovery found: a durable daemon's report, `None` on
    /// a durability-off daemon, `()` on a front (it holds no state).
    pub recovery: R,
}

impl<R> ServiceHandle<R> {
    /// Signal stop and join every thread of the service. A front's backend
    /// daemons keep running.
    pub fn shutdown(self) {
        self.service.stop.store(true, Ordering::SeqCst);
        self.wait();
    }

    /// Block until a `Shutdown` request stops the service, then join every
    /// thread — the foreground `hawkeye serve` / `hawkeye front` mode.
    pub fn wait(self) {
        let _ = self.accept_thread.join();
    }

    /// True once a `Shutdown` request (or `shutdown()`) stopped the service.
    pub fn is_stopped(&self) -> bool {
        self.service.stop.load(Ordering::SeqCst)
    }
}

/// Serve one connection: read request frames until the peer hangs up,
/// `stop` is raised (polled every 100 ms while idle) or a `Shutdown`
/// request raises it. `Hello` is answered here — a peer speaking another
/// protocol version is refused with an error naming both, one announcing
/// a shard-map epoch other than the service's with the typed
/// `wrong_shard:` error (counted in `ingest_wrong_shard`), any other gets
/// an empty `Ack`, and the session stays open either way — and every other
/// request goes to `handle` with the frame body it was decoded from (which
/// a journaling handler may take). Every op `handle` names is timed into
/// its histogram; slow ones and request errors land in the flight ring.
fn serve_session(
    mut stream: AnyStream,
    service: &FrameService,
    mut handle: impl FnMut(Request, &mut Vec<u8>) -> Answer,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    service.add(SERVE_SESSIONS, 1);
    let stop = &service.stop;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let mut frame = FrameReader {
            stream: &mut stream,
            stop,
            begun: false,
        };
        let (opcode, mut body) = match read_frame(&mut frame) {
            Ok(Some(f)) => f,
            Ok(None) => return, // clean disconnect
            Err(ProtoError::Io(e)) if timed_out(&e) => {
                continue; // idle poll (or stop mid-frame); re-check the stop flag
            }
            Err(e) => {
                let _ = write_response(&mut stream, &Response::Error(e.to_string()));
                return;
            }
        };
        let t0 = Instant::now();
        // An Explain miss is an expected query outcome (clients poll for
        // the latest verdict opportunistically); logging it would bury
        // real errors in the ring.
        let mut log_error = true;
        let (op, resp) = match decode_request(opcode, &body) {
            Ok(Request::Hello {
                version,
                map_epoch: theirs,
            }) => {
                // A peer speaking another protocol version would misread
                // every frame after this one. A peer routing under a
                // different shard-map generation is refused up front too:
                // accepting its session would mean every ingest it routes
                // is suspect. Refused only when both sides announce an
                // epoch and they differ.
                let resp = match (theirs, service.map_epoch) {
                    _ if version != PROTO_VERSION => Response::Error(format!(
                        "protocol version {version} is not this endpoint's version \
                         {PROTO_VERSION}"
                    )),
                    (Some(theirs), Some(ours)) if theirs != ours => {
                        service.add(INGEST_WRONG_SHARD, 1);
                        Response::Error(format!(
                            "{WRONG_SHARD_PREFIX} shard-map epoch {theirs} does not match \
                             this endpoint's epoch {ours}"
                        ))
                    }
                    _ => Response::Ack,
                };
                (None, resp)
            }
            Ok(Request::Shutdown) => {
                stop.store(true, Ordering::SeqCst);
                let _ = write_response(&mut stream, &Response::Bye);
                return;
            }
            Ok(req) => {
                log_error = !matches!(req, Request::Explain(_));
                handle(req, &mut body)
            }
            Err(e) => (None, Response::Error(e.to_string())),
        };
        if let Some(op) = op {
            let ns = t0.elapsed().as_nanos() as u64;
            let slow = ns >= SLOW_OP_NS;
            let mut m = service.metrics.lock().expect("metrics lock");
            m.observe(MetricKey::global(op), ns);
            if slow {
                m.inc(MetricKey::global(SLOW_OPS));
            }
            drop(m);
            if slow {
                service.note(flight_kind::SLOW, op, format!("{ns} ns"));
            }
        }
        if let (true, Response::Error(msg)) = (log_error, &resp) {
            service.note(flight_kind::ERROR, "request_error", msg.clone());
        }
        let mut sent = write_response(&mut stream, &resp);
        if let Err(e) = &sent {
            // Refused before a byte went out, so the stream is still at a
            // frame boundary: say why instead of hanging up.
            if e.kind() == io::ErrorKind::InvalidInput {
                service.note(flight_kind::ERROR, "request_error", e.to_string());
                sent = write_response(&mut stream, &Response::Error(e.to_string()));
            }
        }
        if sent.is_err() {
            return;
        }
    }
}

/// Accept connections on `listener` until `stop` is raised (a `Shutdown`
/// request, the handle) or SIGINT/SIGTERM arrives, which raises it. Each
/// pass joins every session that has ended, so a finished session's stack
/// does not stay mapped until shutdown; then it runs `tick`, takes one
/// pending connection and serves it with a fresh `handler()` on a thread
/// named `session_name`. The live sessions are joined before this returns.
fn accept_loop<H>(
    listener: &Listener,
    service: &Arc<FrameService>,
    session_name: &str,
    mut tick: impl FnMut(),
    mut handler: impl FnMut() -> H,
) where
    H: FnMut(Request, &mut Vec<u8>) -> Answer + Send + 'static,
{
    let stop = &service.stop;
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        if SIG_STOP.load(Ordering::SeqCst) {
            stop.store(true, Ordering::SeqCst);
            break;
        }
        for ended in sessions.extract_if(.., |s| s.is_finished()) {
            let _ = ended.join();
        }
        tick();
        match listener.accept() {
            Ok(stream) => {
                let (service, handle) = (Arc::clone(service), handler());
                sessions.push(
                    thread::Builder::new()
                        .name(session_name.into())
                        .spawn(move || serve_session(stream, &service, handle))
                        .expect("spawn session"),
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    for s in sessions {
        let _ = s.join();
    }
}

/// Set by the process signal handler, polled by [`accept_loop`].
static SIG_STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Async-signal-safe: one atomic store, nothing else.
    SIG_STOP.store(true, Ordering::SeqCst);
}

/// Install SIGINT/SIGTERM handlers that request a graceful stop of every
/// accept loop in this process: each notices the signal within its poll
/// interval and runs the same teardown a `Shutdown` request does, so
/// `kill -TERM` never leaves a stale socket behind. `std` already links
/// libc, so `signal(2)` is declared directly instead of pulling in a
/// binding crate.
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as usize;
    // SAFETY: `signal(2)` with a handler that only stores to an atomic,
    // which is async-signal-safe; the handler is a plain `extern "C" fn`
    // that lives for the whole process.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_client::proto::{decode_response, write_request, MAX_FRAME};
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    /// Run `serve_session` over one end of a socket pair, with `handle`
    /// answering, while `peer` drives the other end; returns the flight ring.
    fn session_rig(
        handle: impl FnMut(Request, &mut Vec<u8>) -> Answer + Send,
        peer: impl FnOnce(&mut UnixStream),
    ) -> FlightRecorder {
        let (peer_end, ours) = UnixStream::pair().expect("socket pair");
        let service = FrameService::new(None, &[]);
        std::thread::scope(|s| {
            s.spawn(|| serve_session(AnyStream::Unix(ours), &service, handle));
            // Owned in here, so a failing peer's unwinding closes it and
            // the session ends instead of waiting on it forever.
            let mut peer_end = peer_end;
            peer(&mut peer_end);
        });
        assert!(
            service.stop.load(Ordering::SeqCst),
            "the peer ends with Shutdown"
        );
        service.flight.into_inner().unwrap()
    }

    fn ask(peer: &mut UnixStream, req: &Request) -> Response {
        write_request(peer, req).expect("write");
        let (op, body) = read_frame(peer).expect("read").expect("frame");
        decode_response(op, &body).expect("decode")
    }

    /// A Hello is refused unless it speaks this build's protocol version,
    /// with an error naming both versions, and the session stays open: the
    /// same peer's current-version Hello is then answered with an `Ack`.
    #[test]
    fn a_hello_of_another_version_is_refused() {
        let flight = session_rig(
            |_, _| (None, Response::Stats(serde::Value::Null)),
            |peer| {
                let hello = |version| Request::Hello {
                    version,
                    map_epoch: None,
                };
                let Response::Error(msg) = ask(peer, &hello(4)) else {
                    panic!("a version-4 Hello must be refused");
                };
                assert!(
                    msg.contains("version 4") && msg.contains("version 5"),
                    "versions not named: {msg}"
                );
                assert_eq!(ask(peer, &hello(PROTO_VERSION)), Response::Ack);
                assert_eq!(ask(peer, &Request::Shutdown), Response::Bye);
            },
        );
        assert_eq!(flight.len(), 1, "the refusal reaches the ring");
    }

    /// A response too large to frame is answered with an error naming the
    /// cap, and the session stays usable — never a half-written frame.
    #[test]
    fn oversized_response_is_an_error_not_a_hangup() {
        let flight = session_rig(
            |req, _| match req {
                Request::Stats => {
                    let huge = "x".repeat(MAX_FRAME as usize);
                    (None, Response::Stats(serde::Value::Str(huge)))
                }
                _ => (None, Response::Stats(serde::Value::Null)),
            },
            |peer| {
                let Response::Error(msg) = ask(peer, &Request::Stats) else {
                    panic!("oversized response must come back as an error");
                };
                assert!(msg.contains(&MAX_FRAME.to_string()), "cap not named: {msg}");
                assert_eq!(
                    ask(peer, &Request::Metrics),
                    Response::Stats(serde::Value::Null)
                );
                assert_eq!(ask(peer, &Request::Shutdown), Response::Bye);
            },
        );
        assert_eq!(flight.len(), 1, "the refusal reaches the ring");
    }

    /// A frame that arrives in two writes with a pause longer than the
    /// session's 100 ms idle poll between them — after part of the length
    /// prefix, or after the prefix — is read whole, and the session stays
    /// at a frame boundary for the next request.
    #[test]
    fn a_frame_split_across_the_idle_poll_is_read_whole() {
        let explain = Request::Explain(Some(7));
        let mut frame = Vec::new();
        write_request(&mut frame, &explain).expect("encode");
        for split in [2, 4] {
            session_rig(
                |req, _| match req {
                    Request::Explain(seq) => (None, Response::Error(format!("explain {seq:?}"))),
                    _ => (None, Response::Stats(serde::Value::Null)),
                },
                |peer| {
                    peer.write_all(&frame[..split]).expect("first part");
                    std::thread::sleep(Duration::from_millis(250));
                    peer.write_all(&frame[split..]).expect("rest");
                    let (op, body) = read_frame(peer).expect("read").expect("frame");
                    assert_eq!(
                        decode_response(op, &body).expect("decode"),
                        Response::Error("explain Some(7)".into()),
                        "split after {split} bytes"
                    );
                    assert_eq!(
                        ask(peer, &Request::Stats),
                        Response::Stats(serde::Value::Null)
                    );
                    assert_eq!(ask(peer, &Request::Shutdown), Response::Bye);
                },
            );
        }
    }

    /// Patience with a partial frame stops at `stop`: neither a peer that
    /// sends two bytes of a frame and then nothing, nor one that trickles a
    /// 1 MiB frame a byte every 50 ms, keeps `DaemonHandle::shutdown` from
    /// returning.
    #[test]
    fn a_peer_stalled_mid_frame_does_not_block_shutdown() {
        use hawkeye_sim::{chain, EVAL_BANDWIDTH, EVAL_DELAY};
        let path = std::env::temp_dir().join(format!("hawkeye-stall-{}.sock", std::process::id()));
        let handle = crate::spawn(
            chain(2, 1, EVAL_BANDWIDTH, EVAL_DELAY),
            crate::ServeConfig::default(),
            Endpoint::Unix(path.clone()),
        )
        .expect("bind daemon");
        let mut peer = UnixStream::connect(&path).expect("connect");
        let mut frame = Vec::new();
        write_request(&mut frame, &Request::Stats).expect("encode");
        peer.write_all(&frame[..2]).expect("two bytes");
        let mut trickle = UnixStream::connect(&path).expect("connect");
        let trickler = std::thread::spawn(move || {
            let head = (1u32 << 20).to_le_bytes().into_iter().chain([3]);
            for b in head.chain(std::iter::repeat_n(0, 400)) {
                if trickle.write_all(&[b]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        std::thread::sleep(Duration::from_millis(250));
        let (done_tx, done) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            handle.shutdown();
            let _ = done_tx.send(());
        });
        done.recv_timeout(Duration::from_secs(10))
            .expect("shutdown returned while a peer stalled mid-frame");
        stopper.join().expect("shutdown thread");
        trickler
            .join()
            .expect("the trickle ends when its session does");
        assert!(!path.exists(), "socket file removed");
    }
}
